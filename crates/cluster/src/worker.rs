//! The worker side of the cluster: one [`CpmServer`] per worker, a
//! validate-then-run message handler, and the blocking serve loop.
//!
//! A worker is deliberately stateless beyond its engine: everything it
//! knows (tile, coverage, grid resolution) arrived in the
//! coordinator's `Hello`, and its full query/object state fits in one
//! snapshot frame — which is exactly how a crashed worker's replacement
//! is seeded ([`ClusterMsg::SnapshotXfer`]).
//!
//! Validation is batch-level and runs **before any state changes**
//! (mirroring the server's own ingest hardening): a misrouted object is
//! a typed `PartitionMismatch` refusing the whole batch, a misrouted
//! query a typed `QueryOutOfTile`, an out-of-sequence cycle a typed
//! `EpochGap`. After each cycle the worker re-checks the influence
//! certificate ([`crate::partition::influence_bbox`]) for every owned
//! query and refuses with `CoverageExceeded` the moment local results
//! can no longer be certified globally correct.

use std::num::NonZeroUsize;

use cpm_core::{AnyQuerySpec, CpmError, CpmServer, CpmServerBuilder, CycleDeltas, SpecEvent};
use cpm_grid::{GridGeom, ObjectEvent};
use cpm_wire::cluster::{deltas_frame_into, BatchRef, ClusterMsg, ClusterReject, TileRect};
use cpm_wire::{Decode, WIRE_VERSION};

use crate::error::ClusterError;
use crate::partition::{anchor_of, influence_bbox};
use crate::transport::{Transport, TransportError};

/// One cluster worker: a [`CpmServer`] restricted to a coverage region.
#[derive(Debug)]
pub struct ClusterWorker {
    id: u32,
    server: CpmServer,
    geom: GridGeom,
    tile: TileRect,
    coverage: TileRect,
    /// Recycled per-cycle delta batch (the engine's `_into` idiom), the
    /// `Deltas` payload; valid after a successful `run_batch`.
    cycle_out: CycleDeltas,
}

impl ClusterWorker {
    /// Build a fresh worker for the assignment a `Hello` carries.
    ///
    /// # Errors
    /// [`CpmError::InvalidDim`] for an unusable grid resolution.
    pub fn new(id: u32, dim: u32, tile: TileRect, coverage: TileRect) -> Result<Self, CpmError> {
        // One thread: the worker threads of a cluster are its
        // parallelism.
        let server = CpmServerBuilder::new(dim)
            .threads(NonZeroUsize::MIN)
            .deltas(true)
            .try_build()?;
        Ok(Self {
            id,
            server,
            geom: GridGeom::new(dim),
            tile,
            coverage,
            cycle_out: CycleDeltas::default(),
        })
    }

    /// The worker's index in the cluster.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The underlying server (read-only; mutations go through messages).
    pub fn server(&self) -> &CpmServer {
        &self.server
    }

    /// The worker engine's current epoch.
    pub fn epoch(&self) -> u64 {
        self.server.epoch()
    }

    fn reject(&self, reject: ClusterReject) -> ClusterMsg {
        ClusterMsg::Reject {
            worker: self.id,
            reject,
        }
    }

    /// `true` if `p`'s cell lies inside this worker's coverage.
    fn covered(&self, p: cpm_geom::Point) -> bool {
        self.coverage.contains_cell(self.geom.cell_of(p))
    }

    /// Validate a query-event batch: every addressed spec must anchor
    /// inside this worker's ownership tile (and be partitionable at
    /// all).
    fn check_query_events(&self, events: &[SpecEvent<AnyQuerySpec>]) -> Result<(), ClusterReject> {
        for ev in events {
            let (id, spec) = match ev {
                SpecEvent::Install { id, spec, .. } | SpecEvent::Update { id, spec } => {
                    (*id, Some(spec))
                }
                SpecEvent::Terminate { id } => (*id, None),
            };
            if let Some(spec) = spec {
                match anchor_of(spec) {
                    None => {
                        return Err(ClusterReject::Engine {
                            detail: format!(
                                "composite (RNN) spec for query {} cannot be partitioned",
                                id.0
                            ),
                        })
                    }
                    Some(a) if !self.tile.contains_cell(self.geom.cell_of(a)) => {
                        return Err(ClusterReject::QueryOutOfTile {
                            qid: id,
                            tile: self.tile,
                        })
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(())
    }

    /// The influence certificate: every owned query's influence region
    /// must lie inside the coverage, or the local result can no longer
    /// be proven equal to the global one. Returns the first violator.
    fn certificate_violation(&self) -> Option<cpm_geom::QueryId> {
        let dim = self.geom.dim();
        let full = self.coverage == TileRect::new(0, 0, dim - 1, dim - 1);
        for id in self.server.query_ids() {
            let state = self.server.query_state(id)?;
            let bbox = influence_bbox(
                &state.spec,
                state.k(),
                state.result().len(),
                state.best_dist(),
            );
            let ok = match bbox {
                None => full,
                Some(b) => {
                    self.coverage.contains_cell(self.geom.cell_of(b.lo))
                        && self.coverage.contains_cell(self.geom.cell_of(b.hi))
                }
            };
            if !ok {
                return Some(id);
            }
        }
        None
    }

    /// Handle one between-cycles protocol message, returning the reply
    /// to ship (`None` for `Shutdown`). Cycles arrive as frames that
    /// [`run_worker`] reads through [`BatchRef`].
    pub fn handle(&mut self, msg: ClusterMsg) -> Option<ClusterMsg> {
        match msg {
            ClusterMsg::Install { payload } => Some(self.handle_install(&payload)),
            ClusterMsg::SnapshotReq => {
                let snap = cpm_core::Snapshot::capture(&self.server, self.server.epoch());
                Some(ClusterMsg::SnapshotXfer {
                    worker: self.id,
                    epoch: self.server.epoch(),
                    payload: snap.to_frame(),
                })
            }
            ClusterMsg::SnapshotXfer { payload, .. } => Some(self.handle_restore(&payload)),
            ClusterMsg::Shutdown => None,
            ClusterMsg::Hello { .. }
            | ClusterMsg::HelloAck { .. }
            | ClusterMsg::Ack { .. }
            | ClusterMsg::Reject { .. } => Some(self.reject(ClusterReject::Engine {
                detail: "unexpected protocol message for a worker".to_owned(),
            })),
        }
    }

    /// Between-cycles query maintenance (no epoch advance): installs,
    /// updates and terminations applied through the typed server
    /// surface.
    fn handle_install(&mut self, payload: &[u8]) -> ClusterMsg {
        let events = match Vec::<SpecEvent<AnyQuerySpec>>::decode_all(payload) {
            Ok(v) => v,
            Err(e) => {
                return self.reject(ClusterReject::Engine {
                    detail: format!("query batch decode: {e}"),
                })
            }
        };
        if let Err(r) = self.check_query_events(&events) {
            return self.reject(r);
        }
        for ev in events {
            let applied = match ev {
                SpecEvent::Install { id, spec, k } => {
                    self.server.install_spec(id, spec, k).map(|_| ())
                }
                SpecEvent::Update { id, spec } => self.server.update_spec(id, spec).map(|_| ()),
                SpecEvent::Terminate { id } => self.server.terminate(id),
            };
            if let Err(e) = applied {
                return self.reject(ClusterReject::Engine {
                    detail: e.to_string(),
                });
            }
        }
        if let Some(qid) = self.certificate_violation() {
            return self.reject(ClusterReject::CoverageExceeded {
                qid,
                tile: self.coverage,
            });
        }
        ClusterMsg::Ack {
            worker: self.id,
            epoch: self.server.epoch(),
        }
    }

    /// One processing cycle: validate the whole batch, run it, certify
    /// the results, leave the deltas in the recycled `cycle_out`. The
    /// typed-refusal contract is batch-level: an `Err` means no state
    /// changed.
    fn run_batch(
        &mut self,
        epoch: u64,
        objects: &[ObjectEvent],
        queries: &[u8],
    ) -> Result<(), ClusterReject> {
        let expected = self.server.epoch() + 1;
        if epoch != expected {
            return Err(ClusterReject::EpochGap {
                expected,
                got: epoch,
            });
        }
        // Partition validation before any state change: a position the
        // coordinator routed here must fall inside this coverage.
        for ev in objects {
            let pos = match ev {
                ObjectEvent::Appear { pos, .. } => Some(*pos),
                ObjectEvent::Move { to, .. } => Some(*to),
                ObjectEvent::Disappear { .. } => None,
            };
            if let Some(p) = pos {
                if !self.covered(p) {
                    return Err(ClusterReject::PartitionMismatch {
                        oid: ev.id(),
                        tile: self.coverage,
                    });
                }
            }
        }
        let query_events = Vec::<SpecEvent<AnyQuerySpec>>::decode_all(queries).map_err(|e| {
            ClusterReject::Engine {
                detail: format!("query batch decode: {e}"),
            }
        })?;
        self.check_query_events(&query_events)?;
        // The server validates both batches before any state change, so
        // an engine refusal here leaves the cycle un-run.
        let mut out = std::mem::take(&mut self.cycle_out);
        let ran = self
            .server
            .process_cycle_with_deltas_into(objects, &query_events, &mut out);
        self.cycle_out = out;
        ran.map_err(|e| ClusterReject::Engine {
            detail: e.to_string(),
        })?;
        if let Some(qid) = self.certificate_violation() {
            return Err(ClusterReject::CoverageExceeded {
                qid,
                tile: self.coverage,
            });
        }
        Ok(())
    }

    /// Replace the engine with a transferred snapshot (replacement
    /// worker seeding).
    fn handle_restore(&mut self, payload: &[u8]) -> ClusterMsg {
        let snap = match cpm_core::Snapshot::from_frame(payload) {
            Ok(s) => s,
            Err(e) => {
                return self.reject(ClusterReject::Engine {
                    detail: format!("snapshot decode: {e}"),
                })
            }
        };
        match CpmServer::restore(&snap) {
            Ok(server) => {
                self.server = server;
                ClusterMsg::Ack {
                    worker: self.id,
                    epoch: self.server.epoch(),
                }
            }
            Err(e) => self.reject(ClusterReject::Engine {
                detail: format!("snapshot restore: {e}"),
            }),
        }
    }
}

/// Serve one worker over `transport` until the coordinator shuts it
/// down or hangs up: handshake (`Hello` → `HelloAck`, with a typed
/// version-skew refusal), then handle messages one at a time.
///
/// A first frame that does not decode — a `Hello` naming the removed
/// quadtree index, say — is answered with a `Reject` carrying the wire
/// error, and the worker exits cleanly: it was never assigned anything.
///
/// # Errors
/// [`ClusterError::VersionSkew`] on a mismatched `Hello`,
/// [`ClusterError::Protocol`] if the first message is not a `Hello`,
/// transport/wire errors as typed values. A peer hang-up after the
/// handshake is a clean exit.
pub fn run_worker<T: Transport>(mut transport: T) -> Result<(), ClusterError> {
    let first = match ClusterMsg::from_frame(&transport.recv()?) {
        Ok(msg) => msg,
        Err(e) => {
            let reject = ClusterMsg::Reject {
                // Unknown: it was in the frame. The peer knows the link.
                worker: u32::MAX,
                reject: ClusterReject::Engine {
                    detail: format!("hello decode: {e}"),
                },
            };
            transport.send(&reject.to_frame())?;
            return Ok(());
        }
    };
    let mut worker = match first {
        ClusterMsg::Hello {
            version,
            worker,
            dim,
            tile,
            coverage,
        } => {
            if version != WIRE_VERSION {
                let reject = ClusterMsg::Reject {
                    worker,
                    reject: ClusterReject::VersionSkew {
                        ours: WIRE_VERSION,
                        theirs: version,
                    },
                };
                transport.send(&reject.to_frame())?;
                return Err(ClusterError::VersionSkew {
                    worker,
                    ours: WIRE_VERSION,
                    theirs: version,
                });
            }
            match ClusterWorker::new(worker, dim, tile, coverage) {
                Ok(w) => w,
                Err(e) => {
                    let reject = ClusterMsg::Reject {
                        worker,
                        reject: ClusterReject::Engine {
                            detail: e.to_string(),
                        },
                    };
                    transport.send(&reject.to_frame())?;
                    return Err(ClusterError::engine(worker, &e));
                }
            }
        }
        _ => {
            return Err(ClusterError::Protocol {
                what: "worker expected a Hello first",
            })
        }
    };
    let ack = ClusterMsg::HelloAck {
        worker: worker.id(),
        version: WIRE_VERSION,
        epoch: worker.epoch(),
    };
    transport.send(&ack.to_frame())?;
    // The per-cycle hot path (`Batch` in, `Deltas` out) allocates
    // nothing in steady state: the events decode into `objects`, the
    // deltas encode straight into `reply`, and both frames' buffers go
    // back to the transport they came from.
    let mut objects = Vec::new();
    let mut reply = Vec::new();
    loop {
        let frame = match transport.recv() {
            Ok(f) => f,
            Err(TransportError::Closed) => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        match BatchRef::from_frame(&frame, &mut objects)? {
            Some(batch) => match worker.run_batch(batch.epoch, batch.objects, batch.queries) {
                Ok(()) => deltas_frame_into(worker.id, batch.epoch, &worker.cycle_out, &mut reply),
                Err(r) => worker.reject(r).to_frame_into(&mut reply),
            },
            None => match worker.handle(ClusterMsg::from_frame(&frame)?) {
                Some(msg) => msg.to_frame_into(&mut reply),
                None => return Ok(()),
            },
        }
        transport.recycle(frame);
        reply = transport.send_owned(reply)?;
    }
}
