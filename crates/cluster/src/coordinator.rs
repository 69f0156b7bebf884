//! The coordinator: query installation, update-batch routing with
//! boundary-overlap replication, the epoch-aligned merge, and worker
//! lifecycle (handshake, snapshot-transfer restart).
//!
//! # Routing model
//!
//! The coordinator is the only component that sees the whole workspace.
//! It tracks every live object's position and every query's owner, and
//! translates each global update batch into one per-worker batch:
//!
//! * an object **entering** a worker's coverage appears there, one
//!   **leaving** disappears there, one **moving within** it moves there —
//!   so by induction each worker's live set is exactly the objects in
//!   its coverage;
//! * a query belongs to the worker whose tile contains its anchor
//!   (sticky: an update that moves the anchor off the owner's tile is a
//!   typed [`ClusterError::QueryOutOfTile`], not a silent migration).
//!
//! Every worker receives a batch every cycle — empty batches included —
//! so worker epochs advance in lockstep and the [`MergeBuffer`] barrier
//! can never mix epochs.
//!
//! Routing runs in two phases. Phase 1 only reads: it checks the batch
//! with the single node's rules ([`BatchRules`], the ones
//! [`cpm_core::CpmServer`] applies), answering them from the position
//! table and the ownership map, and then with the cluster's own rule,
//! sticky ownership. A batch the single node refuses is refused here as
//! [`ClusterError::Refused`] with the same [`cpm_core::CpmError`], and
//! nothing was changed or sent. Phase 2 cannot fail: one pass reads each
//! object's slot before it writes it — with one event per object that is
//! the position before the batch — computes the event's old and new cell
//! once, tests them against every worker's coverage and writes the
//! translated event straight into that worker's outgoing frame; each
//! query event goes to its owner as the ownership map is updated. Frames
//! are sealed and sent in canonical worker order.
//!
//! # Two calls, one cycle
//!
//! A caller picks the schedule by the call it makes; both run the same
//! route-and-send and the same collect-and-merge.
//! [`process_cycle`](ClusterCoordinator::process_cycle) returns the
//! cycle's own merged batch. [`submit_cycle`](ClusterCoordinator::submit_cycle)
//! routes, encodes and sends epoch *e+1* while the workers are still
//! computing epoch *e*, and only then drains the merge barrier for *e*:
//! at most one epoch is in flight between calls, and
//! [`flush`](ClusterCoordinator::flush) drains it. The transports are
//! FIFO and workers process one message at a time, so a worker reads
//! batch *e+1* exactly when it finishes *e* and the merged output stream
//! is the same bytes either way. Out-of-band operations (install,
//! restart, snapshot transfer) collect the epoch in flight first; the
//! batch they collect is handed out by the next call, in order.
//!
//! # Failure model
//!
//! A refusal in phase 1 leaves the cluster as it was. Past phase 1 the
//! model is fail-stop: the first typed refusal (a worker's `Reject`, or
//! a transport failure) poisons the cycle — the coordinator returns the
//! error and makes no further guarantees about worker alignment. Recovery is explicit: restart workers from a snapshot
//! ([`ClusterCoordinator::restart_worker`]) or rebuild the cluster.

use std::collections::VecDeque;
use std::net::TcpListener;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use cpm_core::{AnyQuerySpec, BatchRules, CycleDeltas, QuerySpec, SpecEvent};
use cpm_geom::{FastHashMap, ObjectId, Point, QueryId};
use cpm_grid::{ObjectEvent, QueryKind};
use cpm_wire::cluster::{BatchFrame, ClusterMsg, DeltasHeader};
use cpm_wire::{Encode, WIRE_VERSION};

use crate::error::ClusterError;
use crate::merge::MergeBuffer;
use crate::partition::{anchor_of, Partition};
use crate::tcp::TcpTransport;
use crate::transport::{duplex, ChannelTransport, Transport};
use crate::worker::run_worker;

/// Static cluster shape: grid resolution, worker count and overlap
/// margin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Grid resolution (`dim × dim` cells), shared by every worker.
    pub dim: u32,
    /// Number of workers / partition tiles.
    pub workers: u32,
    /// Coverage margin in grid cells on each side of a tile. Wider
    /// margins certify larger influence regions at the cost of more
    /// object replication.
    pub overlap: u32,
}

impl ClusterConfig {
    /// A `workers`-way split of a `dim × dim` grid with a 2-cell overlap.
    pub fn new(dim: u32, workers: u32) -> Self {
        Self {
            dim,
            workers,
            overlap: 2,
        }
    }

    /// Builder-style overlap margin override.
    pub fn overlap(mut self, cells: u32) -> Self {
        self.overlap = cells;
        self
    }
}

/// Per-stage cost breakdown of one committed coordinator cycle — the
/// instrumentation behind [`ClusterCoordinator::last_cycle_timings`]
/// and the bench gates (which read these counters instead of differing
/// wall clocks around whole calls).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleTimings {
    /// Routing and translation: phase-1 planning, per-worker batch
    /// translation, frame encoding and checksums — everything up to the
    /// moment the frames are ready to go.
    pub route: Duration,
    /// Handing the frames to the workers and blocking on their replies
    /// (includes the workers' own cycle compute; under
    /// [`ClusterCoordinator::submit_cycle`] the next epoch's routing
    /// overlaps it). A send is a hand-off, not work: it wakes
    /// its worker, which on a busy host runs at once on this thread's
    /// core — time that is the worker's, whoever's clock it shows on.
    pub worker_wait: Duration,
    /// Everything done with a reply once it is here: frame verification,
    /// the merge barrier, engine-delta decoding and the canonical
    /// query-id interleave. The three stages share their clock readings
    /// — one's end is the next one's start — so the stages of a
    /// [`ClusterCoordinator::process_cycle`] call sum to the time it took.
    pub merge: Duration,
}

impl CycleTimings {
    /// The summed coordinator-side cost of the cycle.
    pub fn total(&self) -> Duration {
        self.route + self.worker_wait + self.merge
    }
}

/// Cumulative coordinator instrumentation across all committed cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordinatorMetrics {
    /// Committed cycles.
    pub cycles: u64,
    /// Summed routing/translation/encode time.
    pub route: Duration,
    /// Summed hand-off time and time blocked on worker replies.
    pub worker_wait: Duration,
    /// Summed merge-barrier time.
    pub merge: Duration,
}

impl CoordinatorMetrics {
    fn record(&mut self, t: CycleTimings) {
        self.cycles += 1;
        self.route += t.route;
        self.worker_wait += t.worker_wait;
        self.merge += t.merge;
    }
}

/// Per-worker reusable routing buffers: the routed query events, their
/// encoding, the outgoing frame under construction, and that frame once
/// sealed — after the send, the buffer the transport handed back for the
/// next one. Steady state the whole route-and-send slice allocates
/// nothing.
#[derive(Debug, Default)]
struct WorkerLane {
    qevents: Vec<SpecEvent<AnyQuerySpec>>,
    queries: Vec<u8>,
    batch: BatchFrame,
    frame: Vec<u8>,
}

/// Attributes wall time to stages that share their boundaries: each
/// [`lap`](Self::lap) charges the time since the previous one, so the
/// stages of a cycle sum to the cycle with nothing left in between.
struct StageClock(Instant);

impl StageClock {
    fn lap(&mut self, stage: &mut Duration) {
        let now = Instant::now();
        *stage += now - self.0;
        self.0 = now;
    }
}

/// The slot of an object that is not live. A live slot never holds a
/// `NaN`: phase 1 refuses non-finite positions.
const NOT_LIVE: Point = Point::new(f64::NAN, f64::NAN);

fn is_live(slot: Point) -> bool {
    !slot.x.is_nan()
}

/// Every live object's current position — the source of truth the
/// per-worker appear/move/disappear translation derives from — as one
/// dense slot per object id (the `cpm_grid::ObjectStore` layout).
#[derive(Debug, Default)]
struct Positions {
    slots: Vec<Point>,
    live: usize,
}

impl Positions {
    /// Whether object `id` is live.
    fn holds(&self, id: ObjectId) -> bool {
        self.slots.get(id.index()).is_some_and(|&p| is_live(p))
    }

    /// Write `new` ([`NOT_LIVE`] for a disappear) into `id`'s slot and
    /// return what the slot held.
    fn replace(&mut self, id: ObjectId, new: Point) -> Point {
        if id.index() >= self.slots.len() {
            self.slots.resize(id.index() + 1, NOT_LIVE);
        }
        let old = std::mem::replace(&mut self.slots[id.index()], new);
        self.live = self.live + usize::from(is_live(new)) - usize::from(is_live(old));
        old
    }
}

/// A spawned worker thread's join handle, resolving to the worker
/// loop's exit status (join after [`ClusterCoordinator::shutdown`]).
pub type WorkerHandle = JoinHandle<Result<(), ClusterError>>;

/// The routing coordinator over `workers` connected [`Transport`] links;
/// see the [module docs](self) for the routing and failure model.
#[derive(Debug)]
pub struct ClusterCoordinator<T: Transport> {
    partition: Partition,
    config: ClusterConfig,
    links: Vec<T>,
    merge: MergeBuffer,
    /// Epoch of the last *committed* (merged) cycle.
    epoch: u64,
    /// Epoch of the last *sent* cycle; `sent_epoch - epoch` batches are
    /// in flight (at most 1 between calls).
    sent_epoch: u64,
    positions: Positions,
    /// Each installed query's owning worker (sticky from install time)
    /// and kind.
    owners: FastHashMap<QueryId, (usize, QueryKind)>,
    /// The single node's batch rules, phase 1's first two steps.
    rules: BatchRules,
    /// Stage breakdown of the last committed cycle.
    timings: CycleTimings,
    /// Cumulative stage totals.
    metrics: CoordinatorMetrics,
    /// Route and hand-off durations of in-flight epochs, oldest first,
    /// so each commit's [`CycleTimings`] pairs the route cost of *its*
    /// epoch with the wait/merge cost observed at commit time.
    route_pending: VecDeque<(Duration, Duration)>,
    /// Committed batches not yet handed to the caller (out-of-band
    /// drains park batches here in order).
    ready: VecDeque<CycleDeltas>,
    /// Reusable per-worker routing/encode buffers.
    lanes: Vec<WorkerLane>,
}

impl ClusterCoordinator<ChannelTransport> {
    /// Spawn `config.workers` in-process workers on [`duplex`] channels,
    /// one thread each, and hand back the connected coordinator plus the
    /// worker join handles (join after [`shutdown`](Self::shutdown)).
    ///
    /// # Errors
    /// Any config or handshake refusal, as [`connect`](Self::connect);
    /// a config refusal comes before any thread starts.
    pub fn spawn_in_process(
        config: ClusterConfig,
    ) -> Result<(Self, Vec<WorkerHandle>), ClusterError> {
        let partition = Partition::new(config.dim, config.workers, config.overlap)?;
        let mut links = Vec::with_capacity(config.workers as usize);
        let mut handles = Vec::with_capacity(config.workers as usize);
        for _ in 0..config.workers {
            let (near, far) = duplex();
            links.push(near);
            handles.push(thread::spawn(move || run_worker(far)));
        }
        Ok((Self::attach(config, partition, links)?, handles))
    }

    /// Spawn one replacement in-process worker and hot-swap it in for
    /// worker `w` via [`restart_worker`](Self::restart_worker).
    ///
    /// # Errors
    /// As [`restart_worker`](Self::restart_worker).
    pub fn restart_worker_in_process(&mut self, w: usize) -> Result<WorkerHandle, ClusterError> {
        let (near, far) = duplex();
        let handle = thread::spawn(move || run_worker(far));
        self.restart_worker(w, near)?;
        Ok(handle)
    }
}

impl ClusterCoordinator<TcpTransport> {
    /// Spawn `config.workers` workers as threads serving TCP loopback
    /// connections (one ephemeral listener each) and connect to them.
    ///
    /// # Errors
    /// Socket errors as [`ClusterError::Transport`]; config and handshake
    /// refusals as [`connect`](Self::connect), a config refusal before
    /// any thread starts.
    pub fn spawn_tcp_loopback(
        config: ClusterConfig,
    ) -> Result<(Self, Vec<WorkerHandle>), ClusterError> {
        let partition = Partition::new(config.dim, config.workers, config.overlap)?;
        let mut links = Vec::with_capacity(config.workers as usize);
        let mut handles = Vec::with_capacity(config.workers as usize);
        for _ in 0..config.workers {
            let (link, handle) = Self::spawn_tcp_worker()?;
            links.push(link);
            handles.push(handle);
        }
        Ok((Self::attach(config, partition, links)?, handles))
    }

    /// Spawn one replacement TCP-loopback worker and hot-swap it in for
    /// worker `w` via [`restart_worker`](Self::restart_worker).
    ///
    /// # Errors
    /// As [`restart_worker`](Self::restart_worker).
    pub fn restart_worker_tcp_loopback(&mut self, w: usize) -> Result<WorkerHandle, ClusterError> {
        let (link, handle) = Self::spawn_tcp_worker()?;
        self.restart_worker(w, link)?;
        Ok(handle)
    }

    fn spawn_tcp_worker() -> Result<(TcpTransport, WorkerHandle), ClusterError> {
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| crate::transport::TransportError::Io(e.to_string()))?;
        let addr = listener
            .local_addr()
            .map_err(|e| crate::transport::TransportError::Io(e.to_string()))?;
        let handle = thread::spawn(move || run_worker(TcpTransport::accept_one(&listener)?));
        Ok((TcpTransport::connect(addr)?, handle))
    }
}

impl<T: Transport> ClusterCoordinator<T> {
    /// Handshake with `links.len() == config.workers` already-serving
    /// workers: send each its `Hello` (worker index, grid, tile,
    /// coverage) and check the `HelloAck`.
    ///
    /// # Errors
    /// [`ClusterError::InvalidConfig`] before anything is sent if
    /// [`Partition::new`] refuses `config` or `links.len() !=
    /// config.workers`; [`ClusterError::VersionSkew`] / typed worker
    /// rejections / [`ClusterError::Protocol`] on a malformed handshake.
    pub fn connect(config: ClusterConfig, links: Vec<T>) -> Result<Self, ClusterError> {
        let partition = Partition::new(config.dim, config.workers, config.overlap)?;
        if links.len() != config.workers as usize {
            return Err(ClusterError::InvalidConfig {
                what: "one transport link per worker",
            });
        }
        Self::attach(config, partition, links)
    }

    /// Handshake over `links`, one per tile of the already validated
    /// `partition`.
    fn attach(
        config: ClusterConfig,
        partition: Partition,
        mut links: Vec<T>,
    ) -> Result<Self, ClusterError> {
        for (w, link) in links.iter_mut().enumerate() {
            Self::handshake(&config, &partition, w as u32, link, 0)?;
        }
        let lanes = (0..config.workers).map(|_| WorkerLane::default()).collect();
        Ok(Self {
            partition,
            config,
            links,
            merge: MergeBuffer::new(config.workers as usize, 0),
            epoch: 0,
            sent_epoch: 0,
            positions: Positions::default(),
            owners: FastHashMap::default(),
            rules: BatchRules::default(),
            timings: CycleTimings::default(),
            metrics: CoordinatorMetrics::default(),
            route_pending: VecDeque::new(),
            ready: VecDeque::new(),
            lanes,
        })
    }

    fn handshake(
        config: &ClusterConfig,
        partition: &Partition,
        w: u32,
        link: &mut T,
        expect_epoch: u64,
    ) -> Result<(), ClusterError> {
        let hello = ClusterMsg::Hello {
            version: WIRE_VERSION,
            worker: w,
            dim: config.dim,
            tile: partition.tile(w as usize),
            coverage: partition.coverage(w as usize),
        };
        link.send(&hello.to_frame())?;
        match ClusterMsg::from_frame(&link.recv()?)? {
            ClusterMsg::HelloAck {
                worker,
                version,
                epoch,
            } => {
                if version != WIRE_VERSION {
                    return Err(ClusterError::VersionSkew {
                        worker: w,
                        ours: WIRE_VERSION,
                        theirs: version,
                    });
                }
                if worker != w {
                    return Err(ClusterError::Protocol {
                        what: "HelloAck from the wrong worker index",
                    });
                }
                if epoch != expect_epoch {
                    return Err(ClusterError::EpochGap {
                        worker: w,
                        expected: expect_epoch,
                        got: epoch,
                    });
                }
                Ok(())
            }
            // The link names the worker: one that could not read its
            // `Hello` does not know its index.
            ClusterMsg::Reject { reject, .. } => Err(ClusterError::from_reject(w, reject)),
            _ => Err(ClusterError::Protocol {
                what: "handshake expected a HelloAck",
            }),
        }
    }

    /// The partition map the cluster routes over.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The configuration the cluster was built with.
    pub fn config(&self) -> ClusterConfig {
        self.config
    }

    /// Epoch of the last committed cycle (0 before the first).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Batches sent but not yet merged: 1 after a successful
    /// [`submit_cycle`](Self::submit_cycle), 0 after any other.
    pub fn in_flight(&self) -> u64 {
        self.sent_epoch - self.epoch
    }

    /// Currently live (routed) object count.
    pub fn objects(&self) -> usize {
        self.positions.live
    }

    /// The worker owning query `id`, if installed.
    pub fn owner(&self, id: QueryId) -> Option<usize> {
        self.owners.get(&id).map(|&(w, _)| w)
    }

    /// Route query maintenance to the owning workers *between* cycles
    /// (no epoch advance): installs pick their owner by anchor tile,
    /// updates and terminations go to the sticky owner. The events are
    /// checked as a cycle's query batch is. Each contacted worker applies
    /// the sub-batch and re-certifies its coverage. The epoch in flight
    /// is collected first (this is a strict request/reply exchange); its
    /// batch is handed out by the next call.
    ///
    /// # Errors
    /// [`ClusterError::Refused`] and [`ClusterError::QueryOutOfTile`]
    /// before anything is changed or sent; worker rejections (engine
    /// errors, [`ClusterError::CoverageExceeded`]) after.
    pub fn install(&mut self, events: &[SpecEvent<AnyQuerySpec>]) -> Result<(), ClusterError> {
        self.check_queries(events)?;
        self.drain_in_flight()?;
        let mut batches = vec![Vec::new(); self.links.len()];
        for ev in events {
            batches[route_query(&self.partition, &mut self.owners, ev)].push(ev.clone());
        }
        for (w, batch) in batches.iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let msg = ClusterMsg::Install {
                payload: batch.encode_to_vec(),
            };
            self.links[w].send(&msg.to_frame())?;
        }
        for (w, batch) in batches.iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            match ClusterMsg::from_frame(&self.links[w].recv()?)? {
                ClusterMsg::Ack { .. } => {}
                ClusterMsg::Reject { worker, reject } => {
                    return Err(ClusterError::from_reject(worker, reject))
                }
                _ => {
                    return Err(ClusterError::Protocol {
                        what: "install expected an Ack",
                    })
                }
            }
        }
        Ok(())
    }

    /// Run one cluster-wide processing cycle to completion: translate
    /// and route the global batches, collect every worker's deltas, and
    /// commit the epoch-aligned merge. The returned batch is
    /// bit-identical to what a single-node [`cpm_core::CpmServer`] emits
    /// for the same cycle.
    ///
    /// [`submit_cycle`](Self::submit_cycle) overlaps epochs instead.
    /// Batches are handed out oldest-first, so mixing the two calls is
    /// safe.
    ///
    /// # Errors
    /// [`ClusterError::Refused`] for a batch the single node refuses, and
    /// [`ClusterError::QueryOutOfTile`], before anything is changed or
    /// sent; worker rejections, transport and merge errors after (the
    /// cycle is then poisoned — see the [module docs](self) failure
    /// model).
    pub fn process_cycle(
        &mut self,
        object_events: &[ObjectEvent],
        query_events: &[SpecEvent<AnyQuerySpec>],
    ) -> Result<CycleDeltas, ClusterError> {
        self.route_and_send(object_events, query_events)?;
        self.drain_in_flight()?;
        self.ready.pop_front().ok_or(ClusterError::Protocol {
            what: "a drained coordinator produced no merged batch",
        })
    }

    /// Send one cycle and return the oldest merged batch not yet handed
    /// out — the previous cycle's, or `None` on the first call. The cycle
    /// sent here stays in flight until the next call (or
    /// [`flush`](Self::flush)).
    ///
    /// The overlap: while the workers compute the epoch submitted here,
    /// the *next* call's routing/encode slice runs on the coordinator,
    /// and the merge barrier drains the previous epoch — route *e+1* /
    /// compute *e* / merge *e−1*.
    ///
    /// # Errors
    /// As [`process_cycle`](Self::process_cycle).
    pub fn submit_cycle(
        &mut self,
        object_events: &[ObjectEvent],
        query_events: &[SpecEvent<AnyQuerySpec>],
    ) -> Result<Option<CycleDeltas>, ClusterError> {
        self.route_and_send(object_events, query_events)?;
        while self.in_flight() > 1 {
            self.collect_one()?;
        }
        Ok(self.ready.pop_front())
    }

    /// Collect and merge the epoch in flight and return every merged
    /// batch not yet handed out, oldest first. Call at end of stream (or
    /// before tearing the cluster down) after a
    /// [`submit_cycle`](Self::submit_cycle) loop.
    ///
    /// # Errors
    /// As [`process_cycle`](Self::process_cycle).
    pub fn flush(&mut self) -> Result<Vec<CycleDeltas>, ClusterError> {
        self.drain_in_flight()?;
        Ok(self.ready.drain(..).collect())
    }

    /// Per-stage timings of the last committed cycle.
    pub fn last_cycle_timings(&self) -> CycleTimings {
        self.timings
    }

    /// Cumulative per-stage totals across all committed cycles.
    pub fn metrics(&self) -> CoordinatorMetrics {
        self.metrics
    }

    /// Return the cumulative per-stage totals and reset the accumulators
    /// to zero, so a caller can scope the averages to a window (e.g. a
    /// benchmark's measured cycles, excluding warmup).
    pub fn take_metrics(&mut self) -> CoordinatorMetrics {
        std::mem::take(&mut self.metrics)
    }

    /// Hot-swap worker `w`: collect the epoch in flight (worker epochs
    /// must be aligned before state moves), capture the worker's engine snapshot
    /// over the old link, shut the old worker down, handshake the
    /// replacement serving on `replacement`, and seed it with the
    /// snapshot. The cluster resumes at the current epoch with no other
    /// worker involved.
    ///
    /// # Errors
    /// Transport/handshake/restore failures as typed errors; on error
    /// the old link may already be gone (rebuild the cluster).
    pub fn restart_worker(&mut self, w: usize, mut replacement: T) -> Result<(), ClusterError> {
        self.drain_in_flight()?;
        self.links[w].send(&ClusterMsg::SnapshotReq.to_frame())?;
        let snapshot = match ClusterMsg::from_frame(&self.links[w].recv()?)? {
            ClusterMsg::SnapshotXfer { payload, .. } => payload,
            ClusterMsg::Reject { worker, reject } => {
                return Err(ClusterError::from_reject(worker, reject))
            }
            _ => {
                return Err(ClusterError::Protocol {
                    what: "snapshot request expected a SnapshotXfer",
                })
            }
        };
        self.links[w].send(&ClusterMsg::Shutdown.to_frame())?;
        // A fresh worker starts at epoch 0; the snapshot then fast-forwards
        // it to the cluster epoch.
        Self::handshake(&self.config, &self.partition, w as u32, &mut replacement, 0)?;
        let xfer = ClusterMsg::SnapshotXfer {
            worker: w as u32,
            epoch: self.epoch,
            payload: snapshot,
        };
        replacement.send(&xfer.to_frame())?;
        match ClusterMsg::from_frame(&replacement.recv()?)? {
            ClusterMsg::Ack { epoch, .. } if epoch == self.epoch => {}
            ClusterMsg::Ack { epoch, .. } => {
                return Err(ClusterError::EpochGap {
                    worker: w as u32,
                    expected: self.epoch,
                    got: epoch,
                })
            }
            ClusterMsg::Reject { worker, reject } => {
                return Err(ClusterError::from_reject(worker, reject))
            }
            _ => {
                return Err(ClusterError::Protocol {
                    what: "snapshot transfer expected an Ack",
                })
            }
        }
        self.links[w] = replacement;
        Ok(())
    }

    /// Shut every worker down cleanly. Join the spawn handles afterwards
    /// to observe their exit status. A cycle still in flight or parked
    /// is discarded — [`flush`](Self::flush) first if it matters.
    ///
    /// # Errors
    /// The first send failure (a worker that already hung up).
    pub fn shutdown(mut self) -> Result<(), ClusterError> {
        for link in &mut self.links {
            link.send(&ClusterMsg::Shutdown.to_frame())?;
        }
        Ok(())
    }

    /// Check, route, translate, encode and send one cycle's batches. A
    /// refusal returns from the read-only phase 1, leaving the
    /// coordinator — including in-flight epochs — untouched.
    fn route_and_send(
        &mut self,
        object_events: &[ObjectEvent],
        query_events: &[SpecEvent<AnyQuerySpec>],
    ) -> Result<(), ClusterError> {
        let epoch = self.sent_epoch + 1;
        let mut clock = StageClock(Instant::now());
        let (mut route, mut handoff) = (Duration::ZERO, Duration::ZERO);
        let positions = &self.positions;
        self.rules
            .check_objects(object_events, |id| positions.holds(id))
            .map_err(ClusterError::Refused)?;
        self.check_queries(query_events)?;
        for lane in &mut self.lanes {
            lane.batch.begin(epoch, std::mem::take(&mut lane.frame));
            lane.qevents.clear();
        }
        translate(
            &self.partition,
            object_events,
            &mut self.positions,
            &mut self.lanes,
        );
        for ev in query_events {
            let owner = route_query(&self.partition, &mut self.owners, ev);
            self.lanes[owner].qevents.push(ev.clone());
        }
        for lane in &mut self.lanes {
            lane.qevents.encode_into(&mut lane.queries);
            lane.frame = lane.batch.finish(&lane.queries);
        }
        // Every frame is sealed before the first is sent: a send wakes
        // its worker, and on a host with fewer idle cores than workers
        // that worker runs on this thread's core — the others would wait
        // a whole worker cycle for their frames, and the time would show
        // up as routing.
        clock.lap(&mut route);
        for (lane, link) in self.lanes.iter_mut().zip(&mut self.links) {
            lane.frame = link.send_owned(std::mem::take(&mut lane.frame))?;
        }
        clock.lap(&mut handoff);
        self.route_pending.push_back((route, handoff));
        self.sent_epoch = epoch;
        Ok(())
    }

    /// Collect every worker's reply for the oldest in-flight epoch,
    /// commit the merge barrier, and park the merged batch on the ready
    /// queue.
    fn collect_one(&mut self) -> Result<(), ClusterError> {
        debug_assert!(self.in_flight() > 0, "no epoch in flight to collect");
        let (route, mut wait) = self.route_pending.pop_front().unwrap_or_default();
        let mut merge_spent = Duration::ZERO;
        // Waiting ends where verifying starts, and the other way round.
        let mut clock = StageClock(Instant::now());
        for (w, link) in self.links.iter_mut().enumerate() {
            let frame = link.recv()?;
            clock.lap(&mut wait);
            match DeltasHeader::from_frame(&frame)? {
                // The worker index is read off the socket: only the link
                // it arrived on may vouch for it.
                Some(deltas) if deltas.worker as usize == w => self.merge.offer(deltas, frame)?,
                Some(_) => {
                    return Err(ClusterError::Protocol {
                        what: "Deltas reply names another worker than the link it arrived on",
                    })
                }
                None => {
                    return Err(match ClusterMsg::from_frame(&frame)? {
                        ClusterMsg::Reject { worker, reject } => {
                            ClusterError::from_reject(worker, reject)
                        }
                        _ => ClusterError::Protocol {
                            what: "cycle expected a Deltas batch",
                        },
                    })
                }
            }
            clock.lap(&mut merge_spent);
        }
        let mut merged = CycleDeltas::default();
        if !self.merge.try_commit_into(&mut merged)? {
            return Err(ClusterError::Protocol {
                what: "all workers replied yet the merge barrier is incomplete",
            });
        }
        for (w, link) in self.links.iter_mut().enumerate() {
            if let Some(spent) = self.merge.take_spent(w) {
                link.recycle(spent);
            }
        }
        clock.lap(&mut merge_spent);
        self.epoch = merged.epoch;
        self.timings = CycleTimings {
            route,
            worker_wait: wait,
            merge: merge_spent,
        };
        self.metrics.record(self.timings);
        self.ready.push_back(merged);
        Ok(())
    }

    /// Collect until no epoch is in flight (merged batches stay parked
    /// on the ready queue).
    fn drain_in_flight(&mut self) -> Result<(), ClusterError> {
        while self.in_flight() > 0 {
            self.collect_one()?;
        }
        Ok(())
    }

    /// Phase 1 for query events: the single node's rules, answered from
    /// the ownership map, then sticky ownership — an update must keep its
    /// anchor on its owner's tile. Reads only.
    fn check_queries(&mut self, events: &[SpecEvent<AnyQuerySpec>]) -> Result<(), ClusterError> {
        let owners = &self.owners;
        self.rules
            .check_queries(events, |id| owners.get(&id).map(|&(_, kind)| kind))
            .map_err(ClusterError::Refused)?;
        for ev in events {
            if let SpecEvent::Update { id, spec } = ev {
                let (w, _) = self.owners[id];
                if self.partition.owner_of(anchor(spec)) != w {
                    return Err(ClusterError::QueryOutOfTile {
                        qid: *id,
                        tile: self.partition.tile(w),
                    });
                }
            }
        }
        Ok(())
    }
}

/// The anchor of a spec phase 1 passed: the rules refuse a reverse-NN
/// sector spec, the one kind without an anchor, in an install, and no
/// installed query is of its kind.
fn anchor(spec: &AnyQuerySpec) -> Point {
    anchor_of(spec).expect("phase 1 refuses sector specs")
}

/// Phase 2 for a query event: update the ownership map and return the
/// worker the event goes to — an install's by its anchor's tile, any
/// other event's sticky owner.
fn route_query(
    partition: &Partition,
    owners: &mut FastHashMap<QueryId, (usize, QueryKind)>,
    ev: &SpecEvent<AnyQuerySpec>,
) -> usize {
    match ev {
        SpecEvent::Install { id, spec, .. } => {
            let w = partition.owner_of(anchor(spec));
            owners.insert(*id, (w, spec.kind()));
            w
        }
        SpecEvent::Update { id, .. } => owners[id].0,
        SpecEvent::Terminate { id } => owners.remove(id).expect("phase 1 checked the id").0,
    }
}

/// Phase 2 for object events: apply each to the position table and
/// translate it relative to every worker's coverage (appear/move/
/// disappear rewriting) into the lanes' frames. An event's old and new
/// cell are computed once, whatever the number of workers.
fn translate(
    partition: &Partition,
    events: &[ObjectEvent],
    positions: &mut Positions,
    lanes: &mut [WorkerLane],
) {
    let geom = partition.geom();
    for ev in events {
        let id = ev.id();
        let origin = positions.replace(id, ev.position().unwrap_or(NOT_LIVE));
        let from = is_live(origin).then(|| geom.cell_of(origin));
        let to = ev.position().map(|p| (p, geom.cell_of(p)));
        for (w, lane) in lanes.iter_mut().enumerate() {
            let coverage = partition.coverage(w);
            let was = from.is_some_and(|c| coverage.contains_cell(c));
            let is = to.filter(|&(_, c)| coverage.contains_cell(c));
            lane.batch.push(&match (was, is) {
                (true, Some((to, _))) => ObjectEvent::Move { id, to },
                (false, Some((pos, _))) => ObjectEvent::Appear { id, pos },
                (true, None) => ObjectEvent::Disappear { id },
                (false, None) => continue,
            });
        }
    }
}
