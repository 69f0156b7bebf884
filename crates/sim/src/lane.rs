//! The deployments [`crate::verify()`] replays an [`OpStream`] into, behind
//! one driving surface: a single [`CpmServer`], a [`DurableCpmServer`]
//! that crashes and recovers, and a [`ClusterCoordinator`] over either
//! transport.

use std::num::{NonZeroU64, NonZeroUsize};

use cpm_cluster::{ClusterConfig, ClusterCoordinator, ClusterError, Transport, WorkerHandle};
use cpm_core::snapshot::Snapshot;
use cpm_core::{
    AnyQuerySpec, CpmServer, CpmServerBuilder, CycleDeltas, DurableCpmServer, PointQuery,
    RecoveryError, RegridPolicy, SpecEvent,
};
use cpm_gen::{Corruption, FaultPlan};
use cpm_geom::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ops::{Control, CycleOps, OpStream};

/// Whether and when a lane's spatial index is rebuilt mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regrid {
    /// Never: [`Control::Regrid`] and [`Control::SnapshotRoundTrip`] are
    /// ignored.
    Pinned,
    /// Where the stream's controls say.
    Scheduled,
    /// Snapshots as `Scheduled`; re-grids when the cost-model policy
    /// ([`auto_regrid_policy`]) decides.
    Auto,
}

/// What runs the cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deploy {
    /// One [`CpmServer`].
    Single,
    /// A [`DurableCpmServer`], checkpointing every third cycle, that
    /// performs [`Control::Crash`] and no scheduled control: `regrid` is
    /// [`Regrid::Pinned`] or [`Regrid::Auto`].
    Durable,
    /// A [`ClusterCoordinator`] with an overlap of a third of the grid,
    /// driven through `submit_cycle` / `flush`, that performs
    /// [`Control::RestartWorker`]. The stream must keep
    /// every query on one owner ([`crate::Anchors::Strips`]); workers
    /// run on one thread each and have no re-grid axis, so `threads` is 1
    /// and `regrid` is [`Regrid::Pinned`].
    Cluster {
        /// Worker (tile) count: 1, 2 or 4, so tiles hold whole strips.
        workers: u32,
        /// TCP loopback links instead of in-process channels.
        tcp: bool,
    },
}

/// One configuration of the system, to be proven equivalent to
/// [`LaneConfig::REFERENCE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneConfig {
    /// Threads per server.
    pub threads: NonZeroUsize,
    /// Re-grid behaviour.
    pub regrid: Regrid,
    /// Deployment shape.
    pub deploy: Deploy,
}

impl LaneConfig {
    /// What every lane is compared with: one single-threaded
    /// single-node server that never rebuilds its index.
    pub const REFERENCE: LaneConfig = LaneConfig {
        threads: NonZeroUsize::MIN,
        regrid: Regrid::Pinned,
        deploy: Deploy::Single,
    };

    /// # Panics
    /// Panics if the configuration names an axis its deployment does not
    /// have, so a lane's name says only what it runs.
    pub(crate) fn build(self, dim: u32) -> Box<dyn Lane> {
        let policy = match self.regrid {
            Regrid::Auto => auto_regrid_policy(),
            Regrid::Pinned | Regrid::Scheduled => RegridPolicy::Manual,
        };
        let server = || {
            CpmServerBuilder::new(dim)
                .threads(self.threads)
                .deltas(true)
                .regrid(policy)
                .build()
        };
        let (workers, tcp) = match self.deploy {
            Deploy::Single => return Box::new(ServerLane(server(), self.regrid)),
            Deploy::Durable => {
                assert!(
                    self.regrid != Regrid::Scheduled,
                    "{self:?} has no such axis"
                );
                return Box::new(DurableLane(DurableCpmServer::new(server(), CHECKPOINTS)));
            }
            Deploy::Cluster { workers, tcp } => (workers, tcp),
        };
        let (threads, regrid) = (self.threads, self.regrid);
        assert!(
            threads == NonZeroUsize::MIN && regrid == Regrid::Pinned,
            "{self:?} has no such axis"
        );
        let config = ClusterConfig::new(dim, workers).overlap((dim / 3).max(1));
        if tcp {
            let spawned = ClusterCoordinator::spawn_tcp_loopback(config);
            ClusterLane::boxed(spawned, ClusterCoordinator::restart_worker_tcp_loopback)
        } else {
            let spawned = ClusterCoordinator::spawn_in_process(config);
            ClusterLane::boxed(spawned, ClusterCoordinator::restart_worker_in_process)
        }
    }
}

/// The policy [`Regrid::Auto`] lanes run: the cost model evaluated
/// every third cycle, often enough to act within a test-sized stream.
pub fn auto_regrid_policy() -> RegridPolicy {
    RegridPolicy::Auto {
        check_every: NonZeroU64::new(3).expect("non-zero"),
    }
}

/// One deployment under test.
pub(crate) trait Lane {
    /// Run cycle `t` of `stream` — its control if this lane can perform
    /// it, its reverse-NN placements, its event batches — and return the
    /// merged batches this surfaced, oldest first: the cycle's own, the
    /// previous one a cluster held in flight, or cycles redelivered after
    /// a crash.
    fn apply(&mut self, stream: &OpStream, t: usize) -> Vec<CycleDeltas>;

    /// End of stream: surface what is still in flight and shut down.
    fn finish(&mut self) -> Vec<CycleDeltas> {
        Vec::new()
    }

    /// The lane's read surface (results, object table, counters,
    /// invariants), current as of the last applied cycle, if it has one.
    fn server(&self) -> Option<&CpmServer>;
}

pub(crate) fn knn(pos: Point) -> AnyQuerySpec {
    PointQuery(pos).into()
}

struct ServerLane(CpmServer, Regrid);

impl Lane for ServerLane {
    fn apply(&mut self, stream: &OpStream, t: usize) -> Vec<CycleDeltas> {
        let (ops, server) = (&stream.cycles[t], &mut self.0);
        match ops.control {
            Some(Control::Regrid(dim)) if self.1 == Regrid::Scheduled => {
                // A stream's controls name dimensions in range, and no
                // dimension in range is ever refused.
                let migrated = server
                    .regrid_to(dim)
                    .unwrap_or_else(|e| panic!("re-grid to {dim} refused: {e}"));
                assert_eq!(server.grid().dim(), dim, "the re-grid did nothing");
                assert!(
                    migrated == 0 || migrated == server.grid().len(),
                    "a re-grid migrates the whole live set or nothing, not {migrated}"
                );
            }
            Some(Control::SnapshotRoundTrip) if self.1 != Regrid::Pinned => {
                let frame = Snapshot::capture(server, 0).to_frame();
                let snap = Snapshot::from_frame(&frame).expect("a fresh snapshot frame decodes");
                *server = CpmServer::restore(&snap).expect("a fresh snapshot restores");
            }
            Some(Control::InstallOutOfBand { id, pos, k }) => {
                server
                    .install_spec(id, knn(pos), k)
                    .expect("a fresh out-of-band install");
            }
            _ => {}
        }
        for &(id, pos) in &ops.rnn_moves {
            let placed = match server.kind_of(id) {
                Some(_) => server.update_rnn(id, pos),
                None => server.install_rnn(id, pos),
            };
            placed.expect("a valid RNN move or a fresh id");
        }
        let mut out = CycleDeltas::default();
        server
            .process_cycle_with_deltas_into(&ops.object_events, &ops.spec_events, &mut out)
            .expect("a valid stream");
        vec![out]
    }

    fn server(&self) -> Option<&CpmServer> {
        Some(&self.0)
    }
}

/// Checkpoint interval of durable lanes, in cycles.
const CHECKPOINTS: u64 = 3;

struct DurableLane(DurableCpmServer);

impl DurableLane {
    /// Every operation is idempotent: after a crash the journal may or
    /// may not hold the between-cycle records of the first redelivered
    /// cycle.
    fn cycle(&mut self, ops: &CycleOps) -> CycleDeltas {
        if let Some(Control::InstallOutOfBand { id, pos, k }) = ops.control {
            if self.0.server().kind_of(id).is_none() {
                let _ = self.0.install_spec(id, knn(pos), k).expect("a fresh id");
            }
        }
        for &(id, pos) in &ops.rnn_moves {
            let placed = match self.0.server().kind_of(id) {
                Some(_) => self.0.update_rnn(id, pos),
                None => self.0.install_rnn(id, pos),
            };
            placed.expect("a valid RNN move or a fresh id");
        }
        let mut out = CycleDeltas::default();
        self.0
            .process_cycle_with_deltas_into(&ops.object_events, &ops.spec_events, &mut out)
            .expect("a valid stream");
        out
    }

    /// Crash before cycle `t`: damage what is on stable storage, recover
    /// from it, and redeliver the cycles the recovered epoch says are
    /// missing — the at-least-once window a write-after-commit journal
    /// leaves to its upstream.
    fn crash(&mut self, stream: &OpStream, t: usize, plan: &FaultPlan) -> Vec<CycleDeltas> {
        let snapshot = self.0.snapshot_bytes().to_vec();
        let (bad_snapshot, bad_journal) = corrupt(plan, &snapshot, self.0.journal_bytes());
        let recovered = DurableCpmServer::recover(&bad_snapshot, &bad_journal, CHECKPOINTS);
        let (durable, report) = if plan.corruption == Corruption::BitFlipSnapshot {
            assert!(
                matches!(recovered, Err(RecoveryError::Wire(_))),
                "a flipped snapshot bit must fail with a typed wire error, got {recovered:?}"
            );
            // The operator falls back to the intact mirrored copy.
            DurableCpmServer::recover(&snapshot, &bad_journal, CHECKPOINTS)
                .expect("the intact snapshot recovers")
        } else {
            recovered.unwrap_or_else(|e| panic!("recovery failed: {e}"))
        };
        let resumed = report.epoch as usize;
        assert!(
            resumed <= t,
            "recovered epoch {resumed} is beyond the crash"
        );
        let lossless = [
            Corruption::None,
            Corruption::DuplicateFrame,
            Corruption::ReorderFrames,
        ];
        if lossless.contains(&plan.corruption) {
            assert_eq!(resumed, t, "a lossless journal recovers to the crash point");
            assert!(report.tail_error.is_none());
        }
        durable.server().check_invariants();
        self.0 = durable;
        let redelivered = (resumed..t)
            .map(|i| self.cycle(&stream.cycles[i]))
            .collect();
        // A second crash right now must recover again: the rebuilt
        // journal carries the replayed and the redelivered records.
        let (snapshot, journal) = (self.0.snapshot_bytes(), self.0.journal_bytes());
        let (again, _) = DurableCpmServer::recover(snapshot, journal, CHECKPOINTS)
            .expect("post-recovery artifacts recover");
        assert_eq!(again.server().epoch(), self.0.server().epoch());
        redelivered
    }
}

impl Lane for DurableLane {
    fn apply(&mut self, stream: &OpStream, t: usize) -> Vec<CycleDeltas> {
        let mut out = match stream.cycles[t].control {
            Some(Control::Crash(plan)) => self.crash(stream, t, &plan),
            _ => Vec::new(),
        };
        out.push(self.cycle(&stream.cycles[t]));
        out
    }

    fn server(&self) -> Option<&CpmServer> {
        Some(self.0.server())
    }
}

/// Split a journal into whole checksummed frames (12-byte header with
/// the payload length at offset 8, payload, CRC). Only used to *damage*
/// journals, so it trusts lengths.
fn split_frames(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    let mut at = 0usize;
    while at + 16 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at + 8..at + 12].try_into().expect("4 bytes")) as usize;
        let end = at + 12 + len + 4;
        if end > bytes.len() {
            break;
        }
        frames.push(bytes[at..end].to_vec());
        at = end;
    }
    frames
}

/// The artifacts a crash left behind, damaged per the plan.
fn corrupt(plan: &FaultPlan, snapshot: &[u8], journal: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(plan.site_seed);
    let (mut snap, mut jour) = (snapshot.to_vec(), journal.to_vec());
    let mut frames = split_frames(journal);
    match plan.corruption {
        Corruption::TruncateTail if !jour.is_empty() => {
            let cut = rng.gen_range(1..=jour.len());
            jour.truncate(jour.len() - cut);
        }
        Corruption::DuplicateFrame if !frames.is_empty() => {
            jour.extend_from_slice(&frames[rng.gen_range(0..frames.len())]);
        }
        Corruption::ReorderFrames if frames.len() >= 2 => {
            let at = rng.gen_range(0..frames.len() - 1);
            frames.swap(at, at + 1);
            jour = frames.concat();
        }
        Corruption::BitFlipJournal if !jour.is_empty() => {
            let at = rng.gen_range(0..jour.len());
            jour[at] ^= 1 << rng.gen_range(0..8u32);
        }
        Corruption::BitFlipSnapshot => {
            let at = rng.gen_range(0..snap.len());
            snap[at] ^= 1 << rng.gen_range(0..8u32);
        }
        _ => {}
    }
    (snap, jour)
}

type Restart<T> = fn(&mut ClusterCoordinator<T>, usize) -> Result<WorkerHandle, ClusterError>;

/// A coordinator driven through `submit_cycle`, so each cycle's batch
/// surfaces one call late and the last through `flush`.
struct ClusterLane<T: Transport> {
    coord: Option<ClusterCoordinator<T>>,
    handles: Vec<WorkerHandle>,
    restart: Restart<T>,
}

impl<T: Transport + 'static> ClusterLane<T> {
    fn boxed(
        spawned: Result<(ClusterCoordinator<T>, Vec<WorkerHandle>), ClusterError>,
        restart: Restart<T>,
    ) -> Box<dyn Lane> {
        let (coord, handles) = spawned.unwrap_or_else(|e| panic!("cluster spawn failed: {e}"));
        Box::new(ClusterLane {
            coord: Some(coord),
            handles,
            restart,
        })
    }
}

impl<T: Transport> Lane for ClusterLane<T> {
    fn apply(&mut self, stream: &OpStream, t: usize) -> Vec<CycleDeltas> {
        let ops = &stream.cycles[t];
        let coord = self.coord.as_mut().expect("the lane is running");
        match ops.control {
            Some(Control::RestartWorker(w)) => {
                let handle = (self.restart)(coord, w % coord.config().workers as usize)
                    .unwrap_or_else(|e| panic!("worker restart failed: {e}"));
                assert_eq!(
                    coord.in_flight(),
                    0,
                    "a restart collects the epoch in flight before its snapshot transfer"
                );
                self.handles.push(handle);
            }
            Some(Control::InstallOutOfBand { id, pos, k }) => {
                let spec = knn(pos);
                coord
                    .install(&[SpecEvent::Install { id, spec, k }])
                    .unwrap_or_else(|e| panic!("out-of-band install refused: {e}"));
            }
            _ => {}
        }
        assert!(
            ops.rnn_moves.is_empty(),
            "cluster lanes need Anchors::Strips streams"
        );
        let popped = coord
            .submit_cycle(&ops.object_events, &ops.spec_events)
            .unwrap_or_else(|e| panic!("cycle refused: {e}"));
        assert!(coord.in_flight() <= 1, "more than one epoch in flight");
        popped.into_iter().collect()
    }

    fn finish(&mut self) -> Vec<CycleDeltas> {
        let mut coord = self.coord.take().expect("finish runs once");
        let rest = coord
            .flush()
            .unwrap_or_else(|e| panic!("final flush refused: {e}"));
        coord
            .shutdown()
            .unwrap_or_else(|e| panic!("shutdown failed: {e}"));
        for handle in self.handles.drain(..) {
            handle
                .join()
                .expect("a worker thread must not panic")
                .unwrap_or_else(|e| panic!("a worker exited with {e}"));
        }
        rest
    }

    fn server(&self) -> Option<&CpmServer> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Anchors;

    #[test]
    fn frame_splitting_reassembles_exactly() {
        // Seven cycles: not a multiple of the checkpoint interval, so the
        // run ends with journal traffic past the last checkpoint.
        let stream = OpStream::mixed(3, 30, 7, Anchors::Free);
        let server = CpmServerBuilder::new(16).deltas(true).build();
        let mut lane = DurableLane(DurableCpmServer::new(server, CHECKPOINTS));
        for ops in &stream.cycles {
            let _ = lane.cycle(ops);
        }
        let frames = split_frames(lane.0.journal_bytes());
        assert!(!frames.is_empty());
        assert_eq!(frames.concat(), lane.0.journal_bytes());
    }
}
