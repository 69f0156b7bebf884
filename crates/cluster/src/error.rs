//! Typed cluster-layer errors: every way the coordinator/worker protocol
//! can refuse to proceed, surfaced as values instead of panics.

use cpm_core::CpmError;
use cpm_geom::{ObjectId, QueryId};
use cpm_wire::cluster::{ClusterReject, TileRect};
use cpm_wire::WireError;

use crate::transport::TransportError;

/// Why a cluster operation failed.
///
/// A batch the single node would refuse is [`Refused`](Self::Refused),
/// with the single node's own error, before the coordinator changes or
/// sends anything. The protocol's invariants are all here: version
/// agreement ([`VersionSkew`](Self::VersionSkew)), contiguous epochs
/// ([`EpochGap`](Self::EpochGap), [`ConflictingDeltas`](Self::ConflictingDeltas)),
/// routing matching the partition ([`PartitionMismatch`](Self::PartitionMismatch),
/// [`QueryOutOfTile`](Self::QueryOutOfTile)) and the single-node-equivalence
/// certificate ([`CoverageExceeded`](Self::CoverageExceeded)). A violated
/// invariant stops the cluster with one of these — it never commits a
/// merged cycle it cannot certify.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A peer speaks a different wire version.
    VersionSkew {
        /// The worker involved.
        worker: u32,
        /// Our wire version.
        ours: u16,
        /// The version the peer announced.
        theirs: u16,
    },
    /// An epoch arrived out of sequence: a frame was lost or a peer
    /// skipped ahead, and merging around the hole would fabricate
    /// history.
    EpochGap {
        /// The worker involved.
        worker: u32,
        /// The epoch we were ready to process.
        expected: u64,
        /// The epoch that arrived.
        got: u64,
    },
    /// An object event was routed to a worker whose coverage does not
    /// contain its position; the worker refused the whole batch.
    PartitionMismatch {
        /// The misrouted object.
        oid: ObjectId,
        /// The coverage tile the position falls outside of.
        tile: TileRect,
    },
    /// The batch breaks the single node's rules ([`cpm_core::BatchRules`]):
    /// the coordinator refused it with the error a
    /// [`cpm_core::CpmServer`] returns for it, and nothing was changed or
    /// sent.
    Refused(CpmError),
    /// A query was routed to (or moved under) a worker whose tile does
    /// not own its anchor point.
    QueryOutOfTile {
        /// The misrouted query.
        qid: QueryId,
        /// The ownership tile the anchor falls outside of.
        tile: TileRect,
    },
    /// A query's influence region grew past its worker's coverage, so
    /// local results can no longer be certified globally correct. Raise
    /// the overlap margin (or lower the query's `k`) and re-install.
    CoverageExceeded {
        /// The escaping query.
        qid: QueryId,
        /// The worker that could no longer certify it.
        worker: u32,
    },
    /// One worker delivered two different delta payloads for the same
    /// epoch.
    ConflictingDeltas {
        /// The worker involved.
        worker: u32,
        /// The epoch claimed twice.
        epoch: u64,
    },
    /// The transport failed (peer hung up, I/O error).
    Transport(TransportError),
    /// A frame failed to decode.
    Wire(WireError),
    /// A worker's engine refused a batch (rendered `CpmError`).
    Engine {
        /// The worker involved.
        worker: u32,
        /// The engine error's display form.
        detail: String,
    },
    /// The peer answered with a message the protocol does not allow in
    /// this state.
    Protocol {
        /// What was violated.
        what: &'static str,
    },
    /// The `ClusterConfig` cannot be partitioned (no worker, fewer grid
    /// columns than workers, a grid dimension outside `1..=4096`), or
    /// `connect` got a link count other than its worker count. Refused
    /// before any worker thread starts or any frame is sent.
    InvalidConfig {
        /// What is wrong with it.
        what: &'static str,
    },
}

impl ClusterError {
    /// Lift an engine error into the cluster error space.
    pub fn engine(worker: u32, err: &CpmError) -> Self {
        ClusterError::Engine {
            worker,
            detail: err.to_string(),
        }
    }

    /// Reconstruct the typed error a worker shipped as a
    /// [`ClusterReject`].
    pub fn from_reject(worker: u32, reject: ClusterReject) -> Self {
        match reject {
            ClusterReject::VersionSkew { ours, theirs } => ClusterError::VersionSkew {
                worker,
                // The *worker's* "ours" is our "theirs": re-orient so the
                // error reads from the coordinator's point of view.
                ours: theirs,
                theirs: ours,
            },
            ClusterReject::EpochGap { expected, got } => ClusterError::EpochGap {
                worker,
                expected,
                got,
            },
            ClusterReject::PartitionMismatch { oid, tile } => {
                ClusterError::PartitionMismatch { oid, tile }
            }
            ClusterReject::QueryOutOfTile { qid, tile } => {
                ClusterError::QueryOutOfTile { qid, tile }
            }
            ClusterReject::CoverageExceeded { qid, .. } => {
                ClusterError::CoverageExceeded { qid, worker }
            }
            ClusterReject::Engine { detail } => ClusterError::Engine { worker, detail },
        }
    }
}

impl From<TransportError> for ClusterError {
    fn from(e: TransportError) -> Self {
        ClusterError::Transport(e)
    }
}

impl From<WireError> for ClusterError {
    fn from(e: WireError) -> Self {
        ClusterError::Wire(e)
    }
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::VersionSkew {
                worker,
                ours,
                theirs,
            } => write!(
                f,
                "version skew with worker {worker}: ours {ours}, theirs {theirs}"
            ),
            ClusterError::EpochGap {
                worker,
                expected,
                got,
            } => write!(
                f,
                "epoch gap from worker {worker}: expected {expected}, got {got}"
            ),
            ClusterError::PartitionMismatch { oid, tile } => write!(
                f,
                "object {} routed outside worker coverage cols {}..={} rows {}..={}",
                oid.0, tile.c0, tile.c1, tile.r0, tile.r1
            ),
            ClusterError::Refused(e) => write!(f, "refused by the single node's rules: {e}"),
            ClusterError::QueryOutOfTile { qid, tile } => write!(
                f,
                "query {} anchored outside worker tile cols {}..={} rows {}..={}",
                qid.0, tile.c0, tile.c1, tile.r0, tile.r1
            ),
            ClusterError::CoverageExceeded { qid, worker } => write!(
                f,
                "query {} influence region escaped worker {worker}'s coverage",
                qid.0
            ),
            ClusterError::ConflictingDeltas { worker, epoch } => write!(
                f,
                "worker {worker} delivered conflicting deltas for epoch {epoch}"
            ),
            ClusterError::Transport(e) => write!(f, "transport: {e}"),
            ClusterError::Wire(e) => write!(f, "wire: {e}"),
            ClusterError::Engine { worker, detail } => {
                write!(f, "worker {worker} engine error: {detail}")
            }
            ClusterError::Protocol { what } => write!(f, "protocol violation: {what}"),
            ClusterError::InvalidConfig { what } => write!(f, "invalid cluster config: {what}"),
        }
    }
}

impl std::error::Error for ClusterError {}
