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
//! Routing runs in two phases. Phase 1 is inherently serial: event
//! validation and owner/position resolution walk the maps in event
//! order. Phase 2 — per-worker translation and frame encoding — is a
//! pure function of the phase-1 plan and the partition map, so each
//! worker's batch is computed independently (and, in pipelined mode on
//! multi-core hosts, fanned out across `std::thread::scope` threads)
//! and sent in canonical worker order. Both schedules produce
//! bit-identical frames.
//!
//! # Pipelined mode
//!
//! [`ClusterConfig::pipelined`] selects a depth-1 software pipeline:
//! [`submit_cycle`](ClusterCoordinator::submit_cycle) routes, encodes
//! and sends epoch *e+1* while the workers are still computing epoch
//! *e*, and only then drains the merge barrier for the oldest in-flight
//! epoch. The transports are FIFO and workers process one message at a
//! time, so a worker sees `Batch(e+1)` exactly when it finishes `e` —
//! no protocol change, and the merged output stream is bit-identical to
//! the serial coordinator's. Out-of-band operations (install, restart,
//! snapshot transfer) drain the pipeline first; the merged batches they
//! drain are handed out by subsequent submits in order.
//!
//! # Failure model
//!
//! Fail-stop: the first typed refusal (from validation here, a worker's
//! `Reject`, or a transport failure) poisons the cycle — the coordinator
//! returns the error and makes no further guarantees about worker
//! alignment. Recovery is explicit: restart workers from a snapshot
//! ([`ClusterCoordinator::restart_worker`]) or rebuild the cluster.

use std::collections::VecDeque;
use std::net::TcpListener;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use cpm_core::{AnyQuerySpec, CycleDeltas, SpecEvent};
use cpm_geom::{FastHashMap, ObjectId, Point, QueryId};
use cpm_grid::ObjectEvent;
use cpm_sub::{CycleReceipt, DeltaFanout};
use cpm_wire::cluster::{BatchRef, ClusterMsg};
use cpm_wire::{Encode, WIRE_VERSION};

use crate::error::ClusterError;
use crate::merge::MergeBuffer;
use crate::partition::{anchor_of, Partition};
use crate::tcp::TcpTransport;
use crate::transport::{duplex, ChannelTransport, Transport};
use crate::worker::run_worker;

/// Static cluster shape: grid resolution, worker count, overlap margin
/// and cycle schedule.
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
    /// Run the depth-1 epoch pipeline (route epoch *e+1* while workers
    /// compute *e*) and fan per-worker routing out across threads on
    /// multi-core hosts. Default `false`: fully serial cycles. The
    /// merged output stream is bit-identical either way.
    pub pipeline: bool,
}

impl ClusterConfig {
    /// A `workers`-way split of a `dim × dim` grid with a 2-cell overlap,
    /// serial cycles.
    pub fn new(dim: u32, workers: u32) -> Self {
        Self {
            dim,
            workers,
            overlap: 2,
            pipeline: false,
        }
    }

    /// Builder-style overlap margin override.
    pub fn overlap(mut self, cells: u32) -> Self {
        self.overlap = cells;
        self
    }

    /// Builder-style pipeline selection (see [`ClusterConfig::pipeline`]).
    pub fn pipelined(mut self, pipeline: bool) -> Self {
        self.pipeline = pipeline;
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
    /// translation, frame encoding and the sends.
    pub route: Duration,
    /// Time blocked on worker replies (includes the workers' own cycle
    /// compute; in pipelined mode the overlap shrinks this).
    pub worker_wait: Duration,
    /// Merge-barrier cost: payload reassembly, engine-delta decoding and
    /// the canonical query-id interleave.
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
    /// Summed time blocked on worker replies.
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

/// Per-worker reusable routing buffers: the translated object batch,
/// the routed query events, their encoding, and the outgoing frame.
/// Steady state the whole route-and-send slice allocates nothing.
#[derive(Debug, Default)]
struct WorkerLane {
    objects: Vec<ObjectEvent>,
    qevents: Vec<SpecEvent<AnyQuerySpec>>,
    queries: Vec<u8>,
    frame: Vec<u8>,
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
    /// in flight (at most 1 in pipelined mode, 0 otherwise).
    sent_epoch: u64,
    /// Every live object's current position — the source of truth the
    /// per-worker appear/move/disappear translation derives from.
    positions: FastHashMap<ObjectId, Point>,
    /// Each installed query's owning worker (sticky from install time).
    owners: FastHashMap<QueryId, usize>,
    /// Stage breakdown of the last committed cycle.
    timings: CycleTimings,
    /// Cumulative stage totals.
    metrics: CoordinatorMetrics,
    /// Route-slice durations of in-flight epochs, oldest first, so each
    /// commit's [`CycleTimings`] pairs the route cost of *its* epoch
    /// with the wait/merge cost observed at commit time.
    route_pending: VecDeque<Duration>,
    /// Committed batches not yet handed to the caller (pipelined mode;
    /// out-of-band drains park batches here in order).
    ready: VecDeque<CycleDeltas>,
    /// Recycled [`CycleDeltas`] allocations for the merge commits.
    spare: Vec<CycleDeltas>,
    /// Reusable per-worker routing/encode buffers.
    lanes: Vec<WorkerLane>,
    /// Fan phase-2 translation out across scoped threads (pipelined
    /// mode on a multi-core host with more than one worker).
    route_parallel: bool,
}

impl ClusterCoordinator<ChannelTransport> {
    /// Spawn `config.workers` in-process workers on [`duplex`] channels,
    /// one thread each, and hand back the connected coordinator plus the
    /// worker join handles (join after [`shutdown`](Self::shutdown)).
    ///
    /// # Errors
    /// Any handshake refusal, as [`connect`](Self::connect).
    pub fn spawn_in_process(
        config: ClusterConfig,
    ) -> Result<(Self, Vec<WorkerHandle>), ClusterError> {
        let mut links = Vec::with_capacity(config.workers as usize);
        let mut handles = Vec::with_capacity(config.workers as usize);
        for _ in 0..config.workers {
            let (near, far) = duplex();
            links.push(near);
            handles.push(thread::spawn(move || run_worker(far)));
        }
        Ok((Self::connect(config, links)?, handles))
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
    /// Socket errors as [`ClusterError::Transport`]; handshake refusals
    /// as [`connect`](Self::connect).
    pub fn spawn_tcp_loopback(
        config: ClusterConfig,
    ) -> Result<(Self, Vec<WorkerHandle>), ClusterError> {
        let mut links = Vec::with_capacity(config.workers as usize);
        let mut handles = Vec::with_capacity(config.workers as usize);
        for _ in 0..config.workers {
            let (link, handle) = Self::spawn_tcp_worker()?;
            links.push(link);
            handles.push(handle);
        }
        Ok((Self::connect(config, links)?, handles))
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
    /// [`ClusterError::VersionSkew`] / typed worker rejections /
    /// [`ClusterError::Protocol`] on a malformed handshake.
    ///
    /// # Panics
    /// Panics if `links.len() != config.workers`, if `config.workers`
    /// is 0, or if `config.dim < config.workers`.
    pub fn connect(config: ClusterConfig, mut links: Vec<T>) -> Result<Self, ClusterError> {
        assert_eq!(
            links.len(),
            config.workers as usize,
            "one transport link per worker"
        );
        let partition = Partition::new(config.dim, config.workers, config.overlap);
        for (w, link) in links.iter_mut().enumerate() {
            Self::handshake(&config, &partition, w as u32, link, 0)?;
        }
        let lanes = (0..config.workers).map(|_| WorkerLane::default()).collect();
        // Fanning translation out only pays when there is real
        // parallelism to buy: more than one worker lane *and* more than
        // one hardware thread. The serial schedule is bit-identical.
        let route_parallel = config.pipeline && config.workers > 1 && available_threads() > 1;
        Ok(Self {
            partition,
            config,
            links,
            merge: MergeBuffer::new(config.workers as usize, 0),
            epoch: 0,
            sent_epoch: 0,
            positions: FastHashMap::default(),
            owners: FastHashMap::default(),
            timings: CycleTimings::default(),
            metrics: CoordinatorMetrics::default(),
            route_pending: VecDeque::new(),
            ready: VecDeque::new(),
            spare: Vec::new(),
            lanes,
            route_parallel,
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

    /// Batches sent but not yet merged (0 ≤ in-flight ≤ 1).
    pub fn in_flight(&self) -> u64 {
        self.sent_epoch - self.epoch
    }

    /// Currently live (routed) object count.
    pub fn objects(&self) -> usize {
        self.positions.len()
    }

    /// The worker owning query `id`, if installed.
    pub fn owner(&self, id: QueryId) -> Option<usize> {
        self.owners.get(&id).copied()
    }

    /// Route query maintenance to the owning workers *between* cycles
    /// (no epoch advance): installs pick their owner by anchor tile,
    /// updates and terminations go to the sticky owner. Each contacted
    /// worker applies the sub-batch and re-certifies its coverage. In
    /// pipelined mode the pipeline is drained first (this is a strict
    /// request/reply exchange); the drained batches are handed out by
    /// subsequent submits.
    ///
    /// # Errors
    /// Typed routing refusals ([`ClusterError::QueryOutOfTile`],
    /// [`ClusterError::Protocol`] for composite/unknown queries) before
    /// anything is sent; worker rejections (engine errors,
    /// [`ClusterError::CoverageExceeded`]) after.
    pub fn install(&mut self, events: &[SpecEvent<AnyQuerySpec>]) -> Result<(), ClusterError> {
        self.drain_in_flight()?;
        let (batches, owners) = self.route_queries(events)?;
        self.owners = owners;
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
    /// On a pipelined coordinator this degrades to the synchronous
    /// schedule (the in-flight window is drained every call) while still
    /// using the parallel routing slice; use
    /// [`submit_cycle`](Self::submit_cycle) to overlap epochs. Batches
    /// are handed out oldest-first, so mixing the two APIs is safe.
    ///
    /// # Errors
    /// Typed routing refusals before anything is sent; worker
    /// rejections, transport and merge errors after (the cycle is then
    /// poisoned — see the [module docs](self) failure model).
    pub fn process_cycle(
        &mut self,
        object_events: &[ObjectEvent],
        query_events: &[SpecEvent<AnyQuerySpec>],
    ) -> Result<CycleDeltas, ClusterError> {
        self.route_and_send(object_events, query_events)?;
        self.drain_in_flight()?;
        self.ready.pop_front().ok_or(ClusterError::Protocol {
            what: "drained pipeline produced no merged batch",
        })
    }

    /// Submit one cycle into the pipeline and return the oldest merged
    /// batch once the pipeline is full — `None` on the priming call(s).
    /// On a serial (non-pipelined) coordinator the pipeline depth is 0
    /// and this always returns the submitted cycle's batch.
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
        let depth = u64::from(self.config.pipeline);
        while self.in_flight() > depth {
            self.collect_one()?;
        }
        Ok(self.ready.pop_front())
    }

    /// Drain the pipeline: collect and merge every in-flight epoch and
    /// return all merged batches not yet handed out, oldest first. Call
    /// at end of stream (or before tearing the cluster down) after a
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

    /// [`process_cycle`](Self::process_cycle), publishing the merged
    /// batch into a subscription fan-out — the hub-boundary handoff: the
    /// fan-out (and every [`cpm_sub::Replica`] downstream) cannot tell a
    /// cluster from a single node. The merged batch is recycled through
    /// the coordinator's spare pool (the `_into` idiom), so this path
    /// performs no per-cycle `CycleDeltas` clone.
    ///
    /// # Errors
    /// As [`process_cycle`](Self::process_cycle).
    pub fn process_cycle_fanout(
        &mut self,
        object_events: &[ObjectEvent],
        query_events: &[SpecEvent<AnyQuerySpec>],
        fanout: &mut DeltaFanout,
    ) -> Result<CycleReceipt, ClusterError> {
        let merged = self.process_cycle(object_events, query_events)?;
        let receipt = fanout.publish(&merged);
        self.spare.push(merged);
        Ok(receipt)
    }

    /// Hot-swap worker `w`: drain the pipeline (worker epochs must be
    /// aligned before state moves), capture the worker's engine snapshot
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
    /// to observe their exit status. Merged batches still parked in the
    /// pipeline are discarded — [`flush`](Self::flush) first if they
    /// matter.
    ///
    /// # Errors
    /// The first send failure (a worker that already hung up).
    pub fn shutdown(mut self) -> Result<(), ClusterError> {
        for link in &mut self.links {
            link.send(&ClusterMsg::Shutdown.to_frame())?;
        }
        Ok(())
    }

    /// Route, translate, encode and send one cycle's batches (the
    /// pipeline's fill half). A typed refusal returns before any map
    /// commit or send, leaving the coordinator — including in-flight
    /// epochs — untouched.
    fn route_and_send(
        &mut self,
        object_events: &[ObjectEvent],
        query_events: &[SpecEvent<AnyQuerySpec>],
    ) -> Result<(), ClusterError> {
        let epoch = self.sent_epoch + 1;
        let t = Instant::now();
        let (query_owners, owners) = self.plan_queries(query_events)?;
        let (object_origins, position_overlay) = self.plan_objects(object_events)?;
        // Phase 2: per-worker translation + encoding. Each lane is a
        // pure function of the plans and the partition, so the parallel
        // and serial schedules produce bit-identical frames.
        let partition = &self.partition;
        let run = |(w, lane): (usize, &mut WorkerLane)| {
            translate_worker(
                partition,
                w,
                epoch,
                object_events,
                &object_origins,
                query_events,
                &query_owners,
                lane,
            );
        };
        if self.route_parallel {
            thread::scope(|s| {
                for item in self.lanes.iter_mut().enumerate() {
                    s.spawn(move || run(item));
                }
            });
        } else {
            self.lanes.iter_mut().enumerate().for_each(run);
        }
        self.owners = owners;
        self.commit_objects(position_overlay);
        // Stamp the routing slice *before* the sends: a send wakes the
        // receiving worker, which on a saturated host can preempt this
        // thread and run part of its cycle before `elapsed()` is read —
        // that time belongs to the worker-wait slice, not routing.
        let routed = t.elapsed();
        for (lane, link) in self.lanes.iter().zip(&mut self.links) {
            link.send(&lane.frame)?;
        }
        self.route_pending.push_back(routed);
        self.sent_epoch = epoch;
        Ok(())
    }

    /// Collect every worker's reply for the oldest in-flight epoch,
    /// commit the merge barrier, and park the merged batch on the ready
    /// queue (the pipeline's drain half).
    fn collect_one(&mut self) -> Result<(), ClusterError> {
        debug_assert!(self.in_flight() > 0, "no epoch in flight to collect");
        let mut wait = Duration::ZERO;
        let mut merge_spent = Duration::ZERO;
        for link in &mut self.links {
            let t = Instant::now();
            let frame = link.recv()?;
            wait += t.elapsed();
            match ClusterMsg::from_frame(&frame)? {
                ClusterMsg::Deltas {
                    worker,
                    epoch: got,
                    payload,
                } => {
                    let t = Instant::now();
                    self.merge.offer(worker, got, payload)?;
                    merge_spent += t.elapsed();
                }
                ClusterMsg::Reject { worker, reject } => {
                    return Err(ClusterError::from_reject(worker, reject))
                }
                _ => {
                    return Err(ClusterError::Protocol {
                        what: "cycle expected a Deltas batch",
                    })
                }
            }
        }
        let t = Instant::now();
        let mut merged = self.spare.pop().unwrap_or_default();
        let committed = self.merge.try_commit_into(&mut merged)?;
        merge_spent += t.elapsed();
        if !committed {
            return Err(ClusterError::Protocol {
                what: "all workers replied yet the merge barrier is incomplete",
            });
        }
        self.epoch = merged.epoch;
        self.timings = CycleTimings {
            route: self.route_pending.pop_front().unwrap_or_default(),
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

    /// Route query events to per-worker batches against a *copy* of the
    /// ownership map, so a refusal leaves the coordinator untouched.
    /// (The out-of-band install path; the per-cycle path keeps the
    /// phase-1 plan and lets [`translate_worker`] group.)
    #[allow(clippy::type_complexity)]
    fn route_queries(
        &self,
        events: &[SpecEvent<AnyQuerySpec>],
    ) -> Result<
        (
            Vec<Vec<SpecEvent<AnyQuerySpec>>>,
            FastHashMap<QueryId, usize>,
        ),
        ClusterError,
    > {
        let (plan, owners) = self.plan_queries(events)?;
        let mut batches = vec![Vec::new(); self.links.len()];
        for (ev, &w) in events.iter().zip(&plan) {
            batches[w].push(ev.clone());
        }
        Ok((batches, owners))
    }

    /// Phase 1 of query routing: validate every event in order and
    /// resolve its owning worker against a *copy* of the ownership map,
    /// so a refusal leaves the coordinator untouched. Returns the
    /// per-event owner plan and the updated map.
    #[allow(clippy::type_complexity)]
    fn plan_queries(
        &self,
        events: &[SpecEvent<AnyQuerySpec>],
    ) -> Result<(Vec<usize>, FastHashMap<QueryId, usize>), ClusterError> {
        let mut owners = self.owners.clone();
        let mut plan = Vec::with_capacity(events.len());
        for ev in events {
            let w = match ev {
                SpecEvent::Install { id, spec, .. } => {
                    let Some(anchor) = anchor_of(spec) else {
                        return Err(ClusterError::Protocol {
                            what: "composite (RNN) queries cannot be installed on a cluster",
                        });
                    };
                    if owners.contains_key(id) {
                        return Err(ClusterError::Protocol {
                            what: "install of a query id that is already installed",
                        });
                    }
                    let w = self.partition.owner_of(anchor);
                    owners.insert(*id, w);
                    w
                }
                SpecEvent::Update { id, spec } => {
                    let Some(&w) = owners.get(id) else {
                        return Err(ClusterError::Protocol {
                            what: "update of a query the coordinator never installed",
                        });
                    };
                    let Some(anchor) = anchor_of(spec) else {
                        return Err(ClusterError::Protocol {
                            what: "composite (RNN) queries cannot be installed on a cluster",
                        });
                    };
                    // Sticky ownership: the anchor must stay on the
                    // owner's tile.
                    if self.partition.owner_of(anchor) != w {
                        return Err(ClusterError::QueryOutOfTile {
                            qid: *id,
                            tile: self.partition.tile(w),
                        });
                    }
                    w
                }
                SpecEvent::Terminate { id } => {
                    let Some(w) = owners.remove(id) else {
                        return Err(ClusterError::Protocol {
                            what: "terminate of a query the coordinator never installed",
                        });
                    };
                    w
                }
            };
            plan.push(w);
        }
        Ok((plan, owners))
    }

    /// Phase 1 of object routing: validate every event in order against
    /// the position map *plus a batch-local overlay* and record each
    /// event's **origin** (the pre-event position; `None` for appears) —
    /// everything the per-worker translation needs. The overlay keeps
    /// phase 1 `O(batch)` instead of `O(N)` (no full-map copy per
    /// cycle — routing is on the pipelined hot path) while preserving
    /// the refusal contract: nothing commits until
    /// [`commit_objects`](Self::commit_objects) applies the overlay.
    #[allow(clippy::type_complexity)]
    fn plan_objects(
        &self,
        events: &[ObjectEvent],
    ) -> Result<(Vec<Option<Point>>, FastHashMap<ObjectId, Option<Point>>), ClusterError> {
        // `Some(p)`: the object sits at `p` after the batch so far;
        // `None`: it disappeared. Absent: fall through to the live map.
        let mut overlay: FastHashMap<ObjectId, Option<Point>> = FastHashMap::default();
        let current = |overlay: &FastHashMap<ObjectId, Option<Point>>, id: &ObjectId| {
            overlay
                .get(id)
                .copied()
                .unwrap_or_else(|| self.positions.get(id).copied())
        };
        let mut plan = Vec::with_capacity(events.len());
        for ev in events {
            let origin = match *ev {
                ObjectEvent::Appear { id, pos } => {
                    if current(&overlay, &id).is_some() {
                        return Err(ClusterError::Protocol {
                            what: "appear of an object that is already live",
                        });
                    }
                    overlay.insert(id, Some(pos));
                    None
                }
                ObjectEvent::Move { id, to } => {
                    let Some(old) = current(&overlay, &id) else {
                        return Err(ClusterError::Protocol {
                            what: "move of an object that is not live",
                        });
                    };
                    overlay.insert(id, Some(to));
                    Some(old)
                }
                ObjectEvent::Disappear { id } => {
                    let Some(old) = current(&overlay, &id) else {
                        return Err(ClusterError::Protocol {
                            what: "disappear of an object that is not live",
                        });
                    };
                    overlay.insert(id, None);
                    Some(old)
                }
            };
            plan.push(origin);
        }
        Ok((plan, overlay))
    }

    /// Apply a validated phase-1 overlay to the live position map (the
    /// overlay already resolved last-wins within the batch, so entry
    /// order does not matter).
    fn commit_objects(&mut self, overlay: FastHashMap<ObjectId, Option<Point>>) {
        for (id, pos) in overlay {
            match pos {
                Some(p) => {
                    self.positions.insert(id, p);
                }
                None => {
                    self.positions.remove(&id);
                }
            }
        }
    }
}

/// Phase 2 of routing for one worker: translate the global object
/// events relative to its coverage (appear/move/disappear rewriting),
/// group its query events, and encode the outgoing `Batch` frame — all
/// into the lane's recycled buffers.
///
/// A pure function of the phase-1 plans and the partition map: workers'
/// lanes are disjoint, so the per-lane calls run in any order (or in
/// parallel) with bit-identical results.
#[allow(clippy::too_many_arguments)]
fn translate_worker(
    partition: &Partition,
    w: usize,
    epoch: u64,
    object_events: &[ObjectEvent],
    object_origins: &[Option<Point>],
    query_events: &[SpecEvent<AnyQuerySpec>],
    query_owners: &[usize],
    lane: &mut WorkerLane,
) {
    lane.objects.clear();
    for (ev, origin) in object_events.iter().zip(object_origins) {
        match *ev {
            ObjectEvent::Appear { id, pos } => {
                if partition.covers(w, pos) {
                    lane.objects.push(ObjectEvent::Appear { id, pos });
                }
            }
            ObjectEvent::Move { id, to } => {
                let old = origin.expect("phase 1 recorded the pre-move position");
                let was = partition.covers(w, old);
                let is = partition.covers(w, to);
                match (was, is) {
                    (true, true) => lane.objects.push(ObjectEvent::Move { id, to }),
                    (false, true) => lane.objects.push(ObjectEvent::Appear { id, pos: to }),
                    (true, false) => lane.objects.push(ObjectEvent::Disappear { id }),
                    (false, false) => {}
                }
            }
            ObjectEvent::Disappear { id } => {
                let old = origin.expect("phase 1 recorded the last position");
                if partition.covers(w, old) {
                    lane.objects.push(ObjectEvent::Disappear { id });
                }
            }
        }
    }
    lane.qevents.clear();
    for (ev, &owner) in query_events.iter().zip(query_owners) {
        if owner == w {
            lane.qevents.push(ev.clone());
        }
    }
    lane.qevents.encode_into(&mut lane.queries);
    BatchRef {
        epoch,
        objects: &lane.objects,
        queries: &lane.queries,
    }
    .to_frame_into(&mut lane.frame);
}

/// Hardware threads available to this process (1 when undetectable).
fn available_threads() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
