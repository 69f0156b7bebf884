//! Crash-consistent durability for [`CpmServer`]: logical snapshots,
//! an append-only operation journal, and the [`DurableCpmServer`] wrapper
//! that combines the two into a checkpoint/replay recovery story.
//!
//! # Design
//!
//! A snapshot is **logical**, not a memory image: it stores the object
//! table, every installed query's `(spec, k)` plus its captured result
//! list, the engine epoch, the merged work counters, and the re-grid
//! controller's EMA state. Restore rebuilds the grid and re-registers the
//! queries from scratch in ascending id order — the exact discipline the
//! online re-grid path uses — so a restored engine is bit-identical to
//! the captured one in everything observable: results, changed lists and
//! delta streams (the recovery conformance suite asserts this at several
//! thread counts). The captured result lists are a fault detector: a
//! result is a function of the object positions, so a recomputed list
//! that differs from its captured one is a snapshot contradicting itself,
//! refused with [`CpmError::CapturedResultMismatch`].
//!
//! The journal is **write-after-commit**: a record is appended only after
//! the operation it describes succeeded, so a replayed journal never
//! applies an operation the original server rejected. A crash between
//! commit and append loses at most that one operation — exactly the
//! at-least-once redelivery window an upstream event source must cover
//! anyway (and which [`cpm_wire::Journal::replay`]'s deduplication makes
//! safe to re-send).
//!
//! Recovery = decode the snapshot frame (every corruption class surfaces
//! as a typed [`WireError`]), rebuild the server, then replay the journal
//! tail past the snapshot's watermark. A torn or corrupt journal *tail*
//! is crash residue, reported in the [`RecoveryReport`] and recovered
//! around; corruption anywhere load-bearing is a hard [`RecoveryError`].

use std::num::NonZeroUsize;

use cpm_geom::{ObjectId, Point, QueryId};
use cpm_grid::{GridGeom, Metrics, ObjectEvent, QueryKind};
use cpm_wire::{
    decode_framed, encode_framed, put_index_tag, take_index_tag, Decode, Encode, Journal, Reader,
    WireError, Writer, FRAME_SNAPSHOT,
};

use crate::any::AnyQuerySpec;
use crate::delta::CycleDeltas;
use crate::engine::{QuerySpec, SpecEvent};
use crate::error::CpmError;
use crate::neighbors::Neighbor;
use crate::rnn::SECTORS;
use crate::server::{install_k, CpmServer, RESERVED_ID_BASE};
use crate::shard::CpmEngine;

/// The engine part of a [`Snapshot`]: everything needed to rebuild an
/// observably identical query engine from scratch.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    /// Grid resolution (cells per axis).
    pub dim: u32,
    /// Worker-thread count. The field keeps the name of the slot it is
    /// stored in: frames written when engines were split into query
    /// shards carry the shard count there, and restore it as the thread
    /// count.
    pub shards: usize,
    /// Whether the engine captures per-cycle deltas.
    pub collects_deltas: bool,
    /// The re-grid policy in force.
    pub policy: crate::regrid::RegridPolicy,
    /// The re-grid controller's observation state
    /// `(f_obj, f_qry, skew, primed, last_eval, last_regrid)`.
    pub regrid_state: (f64, f64, f64, bool, u64, u64),
    /// The processing-cycle counter at capture time.
    pub epoch: u64,
    /// Merged work counters at capture time.
    pub metrics: Metrics,
    /// Every live object, ascending by id.
    pub objects: Vec<(ObjectId, Point)>,
    /// Every installed query — `(id, spec, k, captured result)` —
    /// ascending by id.
    pub queries: Vec<(QueryId, AnyQuerySpec, usize, Vec<Neighbor>)>,
}

impl EngineSnapshot {
    /// Capture the engine's durable state.
    pub(crate) fn capture(engine: &CpmEngine) -> Self {
        let mut objects: Vec<(ObjectId, Point)> = engine.grid().iter_objects().collect();
        objects.sort_unstable_by_key(|&(id, _)| id);
        let queries = engine
            .query_ids()
            .into_iter()
            .map(|id| {
                let st = engine.query_state(id).expect("listed query is installed");
                (id, st.spec.clone(), st.k(), st.best.neighbors().to_vec())
            })
            .collect();
        EngineSnapshot {
            dim: engine.grid().dim(),
            shards: engine.threads(),
            collects_deltas: engine.collects_deltas(),
            policy: *engine.regrid_policy(),
            regrid_state: engine.regrid_controller().export_state(),
            epoch: engine.epoch(),
            metrics: engine.metrics(),
            objects,
            queries,
        }
    }

    /// Rebuild an engine from this snapshot: rebuild the grid at the
    /// recorded resolution, populate it, then re-register every query
    /// from scratch in ascending id order (the re-grid discipline, so the
    /// result is bit-identical to the captured engine), then restore
    /// counters and the epoch.
    ///
    /// # Errors
    /// [`CpmError::CapturedResultMismatch`] if a recomputed result is not
    /// the captured one (a `Decode`-validated snapshot fails no other
    /// way); [`CpmError::InvalidK`] / [`CpmError::DuplicateQuery`] for a
    /// hand-built query table with `k = 0` or a repeated id.
    pub(crate) fn restore(&self) -> Result<CpmEngine, CpmError> {
        let grid = cpm_grid::GridBuilder::new(self.dim).try_build()?;
        // `Decode` refuses 0; a hand-built 0 runs on one thread, and
        // results are identical at every thread count.
        let threads = NonZeroUsize::new(self.shards).unwrap_or(NonZeroUsize::MIN);
        let mut engine = CpmEngine::with_grid(grid, threads);
        engine.set_regrid_policy(self.policy);
        engine
            .regrid_controller_mut()
            .import_state(self.regrid_state);
        if self.collects_deltas {
            engine.enable_deltas();
        }
        let appears: Vec<ObjectEvent> = (self.objects.iter())
            .map(|&(id, pos)| ObjectEvent::Appear { id, pos })
            .collect();
        engine.populate(&appears);
        for (id, spec, k, captured) in &self.queries {
            if *k == 0 {
                return Err(CpmError::InvalidK(*id));
            }
            if engine.query_state(*id).is_some() {
                return Err(CpmError::DuplicateQuery(*id));
            }
            if engine.install(*id, spec.clone(), *k) != &captured[..] {
                return Err(CpmError::CapturedResultMismatch(*id));
            }
        }
        engine.restore_counters(self.epoch, self.metrics);
        Ok(engine)
    }
}

impl Encode for EngineSnapshot {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.dim);
        put_index_tag(w);
        self.shards.encode(w);
        self.collects_deltas.encode(w);
        self.policy.encode(w);
        self.regrid_state.0.encode(w);
        self.regrid_state.1.encode(w);
        self.regrid_state.2.encode(w);
        self.regrid_state.3.encode(w);
        w.put_u64(self.regrid_state.4);
        w.put_u64(self.regrid_state.5);
        w.put_u64(self.epoch);
        self.metrics.encode(w);
        self.objects.encode(w);
        w.put_u32(u32::try_from(self.queries.len()).expect("query count fits a u32"));
        for (id, spec, k, captured) in &self.queries {
            id.encode(w);
            spec.encode(w);
            k.encode(w);
            captured.encode(w);
        }
    }
}

impl Decode for EngineSnapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let dim_at = r.offset();
        let dim = r.take_u32()?;
        GridGeom::check_dim(dim).map_err(|e| WireError::Invalid {
            offset: dim_at,
            what: e.reason,
        })?;
        take_index_tag(r)?;
        let threads_at = r.offset();
        let threads = usize::decode(r)?;
        if !(1..=4096).contains(&threads) {
            return Err(WireError::Invalid {
                offset: threads_at,
                what: "thread count outside 1..=4096",
            });
        }
        let collects_deltas = bool::decode(r)?;
        let policy = crate::regrid::RegridPolicy::decode(r)?;
        let regrid_at = r.offset();
        let regrid_state = (
            r.take_f64()?,
            r.take_f64()?,
            r.take_f64()?,
            bool::decode(r)?,
            r.take_u64()?,
            r.take_u64()?,
        );
        if !regrid_state.0.is_finite()
            || !regrid_state.1.is_finite()
            || regrid_state.0 < 0.0
            || regrid_state.1 < 0.0
        {
            return Err(WireError::Invalid {
                offset: regrid_at,
                what: "regrid EMA state must be finite and non-negative",
            });
        }
        if !regrid_state.2.is_finite() || regrid_state.2 < 1.0 {
            return Err(WireError::Invalid {
                offset: regrid_at,
                what: "regrid skew EMA must be finite and at least 1",
            });
        }
        let epoch = r.take_u64()?;
        let metrics = Metrics::decode(r)?;
        let objects_at = r.offset();
        let objects: Vec<(ObjectId, Point)> = Vec::decode(r)?;
        for (i, &(id, p)) in objects.iter().enumerate() {
            if i > 0 && objects[i - 1].0 >= id {
                return Err(WireError::Invalid {
                    offset: objects_at,
                    what: "object table not strictly ascending by id",
                });
            }
            if !(0.0..=1.0).contains(&p.x) || !(0.0..=1.0).contains(&p.y) {
                return Err(WireError::Invalid {
                    offset: objects_at,
                    what: "object position outside the unit workspace",
                });
            }
            if id.0 >= ObjectId::LIMIT {
                return Err(WireError::Invalid {
                    offset: objects_at,
                    what: "object id at or above the object-id ceiling",
                });
            }
        }
        let queries_at = r.offset();
        let n_queries = r.take_len(8)?;
        // `take_len` only proves eight bytes per record; reserve at most
        // twice the input bytes left (the `Vec<T>::decode` rule), so a
        // hostile count on these wide records cannot amplify.
        type Record = (QueryId, AnyQuerySpec, usize, Vec<Neighbor>);
        let fits = r.remaining().saturating_mul(2) / std::mem::size_of::<Record>();
        let mut queries: Vec<Record> = Vec::with_capacity(n_queries.min(fits));
        for i in 0..n_queries {
            let id = QueryId::decode(r)?;
            let spec = AnyQuerySpec::decode(r)?;
            let k_at = r.offset();
            let k = usize::decode(r)?;
            if k == 0 {
                return Err(WireError::Invalid {
                    offset: k_at,
                    what: "installed query with k = 0",
                });
            }
            let captured: Vec<Neighbor> = Vec::decode(r)?;
            if i > 0 && queries[i - 1].0 >= id {
                return Err(WireError::Invalid {
                    offset: queries_at,
                    what: "query table not strictly ascending by id",
                });
            }
            queries.push((id, spec, k, captured));
        }
        Ok(EngineSnapshot {
            dim,
            shards: threads,
            collects_deltas,
            policy,
            regrid_state,
            epoch,
            metrics,
            objects,
            queries,
        })
    }
}

/// A full [`CpmServer`] snapshot: the engine state plus the server-side
/// registries (kind map, reverse-NN composition state, verification
/// counters) and the journal watermark the snapshot was taken at.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The engine's logical state.
    pub engine: EngineSnapshot,
    /// The user-visible kind registry, ascending by id.
    pub kinds: Vec<(QueryId, QueryKind)>,
    /// Reverse-NN composition state — `(id, query point, verified set)`
    /// — ascending by id.
    pub rnn: Vec<(QueryId, Point, Vec<ObjectId>)>,
    /// The RNN circle-verification counters.
    pub verify_metrics: Metrics,
    /// Sequence number of the last journal record folded into this
    /// snapshot; recovery replays records *after* it.
    pub watermark: u64,
}

impl Snapshot {
    /// Capture the server's durable state at journal `watermark`.
    #[must_use]
    pub fn capture(server: &CpmServer, watermark: u64) -> Self {
        let (kinds, rnn, verify_metrics) = server.export_registry();
        Snapshot {
            engine: EngineSnapshot::capture(server.engine()),
            kinds,
            rnn,
            verify_metrics,
            watermark,
        }
    }

    /// Encode as a single checksummed [`FRAME_SNAPSHOT`] frame.
    #[must_use]
    pub fn to_frame(&self) -> Vec<u8> {
        encode_framed(FRAME_SNAPSHOT, self)
    }

    /// Decode from a [`FRAME_SNAPSHOT`] frame, verifying the checksum and
    /// every structural invariant.
    ///
    /// # Errors
    /// A typed [`WireError`] locating the corruption.
    pub fn from_frame(bytes: &[u8]) -> Result<Self, WireError> {
        decode_framed(FRAME_SNAPSHOT, bytes)
    }

    /// Cross-validate the decoded registries against the engine's query
    /// table, so a corrupted-but-checksum-valid artifact (or a hand-built
    /// one) can never assemble a server whose internal maps disagree —
    /// the panics `CpmServer` reserves for programming errors must stay
    /// unreachable from input data.
    fn validate(&self) -> Result<(), WireError> {
        let invalid = |what: &'static str| WireError::Invalid { offset: 0, what };
        // The journal's next record is `watermark + 1`: the last sequence
        // number leaves it none.
        if self.watermark == u64::MAX {
            return Err(invalid("watermark leaves no next journal sequence number"));
        }
        let mut engine_kinds: std::collections::BTreeMap<QueryId, QueryKind> =
            std::collections::BTreeMap::new();
        for (id, spec, _, _) in &self.engine.queries {
            engine_kinds.insert(*id, spec.kind());
        }
        for w in self.kinds.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(invalid("kind registry not strictly ascending by id"));
            }
        }
        for w in self.rnn.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(invalid("RNN registry not strictly ascending by id"));
            }
        }
        let mut expected_engine = 0usize;
        for &(id, kind) in &self.kinds {
            if id.0 >= RESERVED_ID_BASE {
                return Err(invalid("user query id in the reserved band"));
            }
            if kind == QueryKind::Rnn {
                let st = self
                    .rnn
                    .iter()
                    .find(|&&(rid, _, _)| rid == id)
                    .ok_or_else(|| invalid("RNN registration without composition state"))?;
                for sector in 0..SECTORS {
                    let sid = CpmServer::sector_id(id, sector);
                    match engine_kinds.get(&sid) {
                        Some(QueryKind::Rnn) => {}
                        _ => return Err(invalid("RNN registration missing a sector candidate")),
                    }
                    // The sector spec must agree with the registration's
                    // query point and its own sector index.
                    let (_, spec, _, _) = self
                        .engine
                        .queries
                        .iter()
                        .find(|(qid, _, _, _)| *qid == sid)
                        .expect("sector id present in engine_kinds");
                    match spec.as_rnn() {
                        Some(rq)
                            if rq.sector() == sector
                                && rq.q().x.to_bits() == st.1.x.to_bits()
                                && rq.q().y.to_bits() == st.1.y.to_bits() => {}
                        _ => return Err(invalid("sector candidate disagrees with RNN state")),
                    }
                }
                expected_engine += SECTORS as usize;
            } else {
                match engine_kinds.get(&id) {
                    Some(&ek) if ek == kind => {}
                    Some(_) => return Err(invalid("registry kind disagrees with the query spec")),
                    None => return Err(invalid("registered query missing from the engine")),
                }
                expected_engine += 1;
            }
        }
        let rnn_regs = self
            .kinds
            .iter()
            .filter(|&&(_, k)| k == QueryKind::Rnn)
            .count();
        if rnn_regs != self.rnn.len() {
            return Err(invalid("orphaned RNN composition state"));
        }
        if expected_engine != self.engine.queries.len() {
            return Err(invalid("engine queries not covered by the registry"));
        }
        Ok(())
    }
}

impl Encode for Snapshot {
    fn encode(&self, w: &mut Writer) {
        self.engine.encode(w);
        self.kinds.encode(w);
        self.rnn.encode(w);
        self.verify_metrics.encode(w);
        w.put_u64(self.watermark);
    }
}

impl Decode for Snapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let snap = Snapshot {
            engine: EngineSnapshot::decode(r)?,
            kinds: Vec::decode(r)?,
            rnn: Vec::decode(r)?,
            verify_metrics: Metrics::decode(r)?,
            watermark: r.take_u64()?,
        };
        snap.validate()?;
        Ok(snap)
    }
}

impl CpmServer {
    /// Rebuild a server from a snapshot. The restored server is
    /// observably identical to the captured one: same results, same
    /// epoch, and bit-identical changed lists and delta streams on every
    /// subsequent cycle (the recovery conformance suite's core claim).
    ///
    /// # Errors
    /// [`CpmError::CapturedResultMismatch`] if a recomputed result is not
    /// the captured one (a `Decode`-validated snapshot fails no other
    /// way); [`CpmError::InvalidK`] / [`CpmError::DuplicateQuery`] for a
    /// hand-built query table with `k = 0` or a repeated id.
    pub fn restore(snapshot: &Snapshot) -> Result<CpmServer, CpmError> {
        let engine = snapshot.engine.restore()?;
        Ok(CpmServer::assemble(
            engine,
            snapshot.kinds.clone(),
            snapshot.rnn.clone(),
            snapshot.verify_metrics,
        ))
    }
}

/// One durable operation, as the journal records it. `Cycle` carries the
/// full event batches; each call of the direct surface gets one record.
#[derive(Debug, Clone)]
pub enum JournalRecord {
    /// One processing cycle's input batches.
    Cycle {
        /// The cycle's object events.
        object_events: Vec<ObjectEvent>,
        /// The cycle's query events.
        query_events: Vec<SpecEvent<AnyQuerySpec>>,
    },
    /// An `install_spec` call, with the `k` it installed with. Never an
    /// RNN spec — those are composite and recorded as
    /// [`JournalRecord::InstallRnn`].
    Install {
        /// The query id.
        id: QueryId,
        /// The query geometry.
        spec: AnyQuerySpec,
        /// The result size.
        k: usize,
    },
    /// An `install_rnn` call.
    InstallRnn {
        /// The registration id.
        id: QueryId,
        /// The query point.
        pos: Point,
    },
    /// An `update_spec` call.
    Update {
        /// The query id.
        id: QueryId,
        /// The replacement geometry.
        spec: AnyQuerySpec,
    },
    /// An `update_rnn` call.
    UpdateRnn {
        /// The registration id.
        id: QueryId,
        /// The new query point.
        pos: Point,
    },
    /// A `terminate` call.
    Terminate {
        /// The query id.
        id: QueryId,
    },
}

impl JournalRecord {
    /// Re-apply this operation to a restored server (the replay path).
    fn apply(&self, server: &mut CpmServer, scratch: &mut CycleDeltas) -> Result<(), CpmError> {
        match self {
            JournalRecord::Cycle {
                object_events,
                query_events,
            } => {
                if server.collects_deltas() {
                    server.process_cycle_with_deltas_into(object_events, query_events, scratch)
                } else {
                    server
                        .process_cycle(object_events, query_events)
                        .map(|_| ())
                }
            }
            JournalRecord::Install { id, spec, k } => {
                server.install_spec(*id, spec.clone(), *k).map(|_| ())
            }
            JournalRecord::InstallRnn { id, pos } => server.install_rnn(*id, *pos).map(|_| ()),
            JournalRecord::Update { id, spec } => server.update_spec(*id, spec.clone()).map(|_| ()),
            JournalRecord::UpdateRnn { id, pos } => server.update_rnn(*id, *pos).map(|_| ()),
            JournalRecord::Terminate { id } => server.terminate(*id),
        }
    }
}

impl Encode for JournalRecord {
    fn encode(&self, w: &mut Writer) {
        match self {
            JournalRecord::Cycle {
                object_events,
                query_events,
            } => {
                w.put_u8(0);
                object_events.encode(w);
                query_events.encode(w);
            }
            JournalRecord::Install { id, spec, k } => {
                w.put_u8(1);
                id.encode(w);
                spec.encode(w);
                k.encode(w);
            }
            JournalRecord::InstallRnn { id, pos } => {
                w.put_u8(2);
                id.encode(w);
                pos.encode(w);
            }
            JournalRecord::Update { id, spec } => {
                w.put_u8(3);
                id.encode(w);
                spec.encode(w);
            }
            JournalRecord::UpdateRnn { id, pos } => {
                w.put_u8(4);
                id.encode(w);
                pos.encode(w);
            }
            JournalRecord::Terminate { id } => {
                w.put_u8(5);
                id.encode(w);
            }
        }
    }
}

impl Decode for JournalRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let at = r.offset();
        match r.take_u8()? {
            0 => Ok(JournalRecord::Cycle {
                object_events: Vec::decode(r)?,
                query_events: Vec::decode(r)?,
            }),
            1 => {
                let id = QueryId::decode(r)?;
                let spec_at = r.offset();
                let spec = AnyQuerySpec::decode(r)?;
                if spec.as_rnn().is_some() {
                    return Err(WireError::Invalid {
                        offset: spec_at,
                        what: "single-spec install record with a composite RNN spec",
                    });
                }
                let k_at = r.offset();
                let k = usize::decode(r)?;
                if k == 0 {
                    return Err(WireError::Invalid {
                        offset: k_at,
                        what: "install record with k = 0",
                    });
                }
                Ok(JournalRecord::Install { id, spec, k })
            }
            2 => Ok(JournalRecord::InstallRnn {
                id: QueryId::decode(r)?,
                pos: Point::decode(r)?,
            }),
            3 => Ok(JournalRecord::Update {
                id: QueryId::decode(r)?,
                spec: AnyQuerySpec::decode(r)?,
            }),
            4 => Ok(JournalRecord::UpdateRnn {
                id: QueryId::decode(r)?,
                pos: Point::decode(r)?,
            }),
            5 => Ok(JournalRecord::Terminate {
                id: QueryId::decode(r)?,
            }),
            _ => Err(WireError::Invalid {
                offset: at,
                what: "unknown journal-record tag",
            }),
        }
    }
}

/// Why a recovery attempt failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryError {
    /// The snapshot or journal bytes did not decode (corruption anywhere
    /// load-bearing — the snapshot frame, or a non-tail journal
    /// inconsistency such as a sequence gap).
    Wire(WireError),
    /// A decoded journal record was rejected by the restored server — the
    /// journal and snapshot describe inconsistent histories — or, at `seq`
    /// = its watermark, the snapshot itself was.
    Apply {
        /// Sequence number of the rejected record.
        seq: u64,
        /// The registry error it produced.
        error: CpmError,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Wire(e) => write!(f, "recovery artifact corrupt: {e}"),
            RecoveryError::Apply { seq, error } => {
                write!(f, "journal record {seq} rejected on replay: {error}")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<WireError> for RecoveryError {
    fn from(e: WireError) -> Self {
        RecoveryError::Wire(e)
    }
}

/// What a successful [`DurableCpmServer::recover`] did.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Journal records replayed on top of the snapshot.
    pub replayed: usize,
    /// The epoch the recovered server resumed at.
    pub epoch: u64,
    /// `Some` when the journal ended in crash residue (torn or corrupt
    /// tail); the records before it were replayed normally.
    pub tail_error: Option<WireError>,
}

/// A [`CpmServer`] wrapped with crash-consistent durability: every
/// mutating operation is journaled *after* it succeeds, and a checkpoint
/// policy periodically folds the journal into a fresh snapshot. See the
/// [module docs](self) for the recovery contract.
#[derive(Debug)]
pub struct DurableCpmServer {
    server: CpmServer,
    journal: Journal,
    /// Checkpoint after this many journaled cycles (0 = manual only).
    checkpoint_every: u64,
    cycles_since_checkpoint: u64,
    snapshot_bytes: Vec<u8>,
}

impl DurableCpmServer {
    /// Wrap `server`, taking an initial checkpoint. `checkpoint_every`
    /// re-checkpoints after that many journaled cycles (0 disables the
    /// automatic policy; [`DurableCpmServer::checkpoint`] remains
    /// available).
    #[must_use]
    pub fn new(server: CpmServer, checkpoint_every: u64) -> Self {
        let journal = Journal::new(0);
        let snapshot_bytes = Snapshot::capture(&server, journal.watermark()).to_frame();
        DurableCpmServer {
            server,
            journal,
            checkpoint_every,
            cycles_since_checkpoint: 0,
            snapshot_bytes,
        }
    }

    /// The wrapped server (read surface: results, metrics, epoch, …).
    #[must_use]
    pub fn server(&self) -> &CpmServer {
        &self.server
    }

    /// Unwrap, discarding the durability state.
    #[must_use]
    pub fn into_inner(self) -> CpmServer {
        self.server
    }

    /// The latest checkpoint's snapshot frame — what would live on stable
    /// storage.
    #[must_use]
    pub fn snapshot_bytes(&self) -> &[u8] {
        &self.snapshot_bytes
    }

    /// The journal bytes appended since the latest checkpoint.
    #[must_use]
    pub fn journal_bytes(&self) -> &[u8] {
        self.journal.bytes()
    }

    /// Sequence number of the most recently journaled operation.
    #[must_use]
    pub fn watermark(&self) -> u64 {
        self.journal.watermark()
    }

    /// Fold the journal into a fresh snapshot now and truncate it.
    pub fn checkpoint(&mut self) {
        let watermark = self.journal.watermark();
        self.snapshot_bytes = Snapshot::capture(&self.server, watermark).to_frame();
        self.journal.truncate_to(watermark);
        self.cycles_since_checkpoint = 0;
    }

    fn journaled<T>(
        &mut self,
        record: &JournalRecord,
        op: impl FnOnce(&mut CpmServer) -> Result<T, CpmError>,
    ) -> Result<T, CpmError> {
        let out = op(&mut self.server)?;
        self.journal.append(&record.encode_to_vec());
        Ok(out)
    }

    /// Journaled [`CpmServer::install_spec`]. The record carries the `k`
    /// the query was installed with (a range's is
    /// [`crate::RangeQuery::UNBOUNDED_K`]).
    pub fn install_spec(
        &mut self,
        id: QueryId,
        spec: impl Into<AnyQuerySpec>,
        k: usize,
    ) -> Result<&[Neighbor], CpmError> {
        let spec = spec.into();
        let record = JournalRecord::Install {
            id,
            k: install_k(&spec, k),
            spec: spec.clone(),
        };
        self.journaled(&record, |s| s.install_spec(id, spec, k).map(|_| ()))?;
        Ok(self.server.result(id).expect("just installed"))
    }

    /// Journaled [`CpmServer::install_rnn`].
    pub fn install_rnn(&mut self, id: QueryId, pos: Point) -> Result<&[ObjectId], CpmError> {
        self.journaled(&JournalRecord::InstallRnn { id, pos }, |s| {
            s.install_rnn(id, pos).map(|_| ())
        })?;
        Ok(self.server.rnn_result(id).expect("just installed"))
    }

    /// Journaled [`CpmServer::update_spec`].
    pub fn update_spec(
        &mut self,
        id: QueryId,
        spec: impl Into<AnyQuerySpec>,
    ) -> Result<&[Neighbor], CpmError> {
        let spec = spec.into();
        let record = JournalRecord::Update {
            id,
            spec: spec.clone(),
        };
        self.journaled(&record, |s| s.update_spec(id, spec).map(|_| ()))?;
        Ok(self.server.result(id).expect("just updated"))
    }

    /// Journaled [`CpmServer::update_rnn`].
    pub fn update_rnn(&mut self, id: QueryId, pos: Point) -> Result<&[ObjectId], CpmError> {
        self.journaled(&JournalRecord::UpdateRnn { id, pos }, |s| {
            s.update_rnn(id, pos).map(|_| ())
        })?;
        Ok(self.server.rnn_result(id).expect("just updated"))
    }

    /// Journaled [`CpmServer::terminate`].
    pub fn terminate(&mut self, id: QueryId) -> Result<(), CpmError> {
        self.journaled(&JournalRecord::Terminate { id }, |s| s.terminate(id))
    }

    fn after_cycle(&mut self) {
        self.cycles_since_checkpoint += 1;
        if self.checkpoint_every > 0 && self.cycles_since_checkpoint >= self.checkpoint_every {
            self.checkpoint();
        }
    }

    /// Journaled [`CpmServer::process_cycle`], applying the checkpoint
    /// policy after the cycle commits.
    pub fn process_cycle(
        &mut self,
        object_events: &[ObjectEvent],
        query_events: &[SpecEvent<AnyQuerySpec>],
    ) -> Result<Vec<QueryId>, CpmError> {
        let changed = self.journaled(
            &JournalRecord::Cycle {
                object_events: object_events.to_vec(),
                query_events: query_events.to_vec(),
            },
            |s| s.process_cycle(object_events, query_events),
        )?;
        self.after_cycle();
        Ok(changed)
    }

    /// Journaled [`CpmServer::process_cycle_with_deltas_into`], applying
    /// the checkpoint policy after the cycle commits.
    pub fn process_cycle_with_deltas_into(
        &mut self,
        object_events: &[ObjectEvent],
        query_events: &[SpecEvent<AnyQuerySpec>],
        out: &mut CycleDeltas,
    ) -> Result<(), CpmError> {
        self.journaled(
            &JournalRecord::Cycle {
                object_events: object_events.to_vec(),
                query_events: query_events.to_vec(),
            },
            |s| s.process_cycle_with_deltas_into(object_events, query_events, out),
        )?;
        self.after_cycle();
        Ok(())
    }

    /// Recover a server from on-disk artifacts: decode `snapshot_bytes`,
    /// rebuild the server, then replay the `journal_bytes` records past
    /// the snapshot's watermark. A torn or corrupt journal *tail* is
    /// tolerated (reported in the [`RecoveryReport`]); every other
    /// corruption class is a typed error.
    ///
    /// The recovered instance's journal is rebuilt from the replayed
    /// records, so a crash right after recovery recovers again.
    ///
    /// # Errors
    /// [`RecoveryError::Wire`] for undecodable artifacts,
    /// [`RecoveryError::Apply`] when a journal record contradicts the
    /// snapshot's registry state, or the snapshot itself.
    pub fn recover(
        snapshot_bytes: &[u8],
        journal_bytes: &[u8],
        checkpoint_every: u64,
    ) -> Result<(Self, RecoveryReport), RecoveryError> {
        let snap = Snapshot::from_frame(snapshot_bytes)?;
        let mut server = CpmServer::restore(&snap).map_err(|error| RecoveryError::Apply {
            seq: snap.watermark,
            error,
        })?;
        let replay = Journal::replay(journal_bytes, snap.watermark)?;
        let mut journal = Journal::new(snap.watermark);
        let mut scratch = CycleDeltas::default();
        let mut replayed = 0usize;
        for (seq, payload) in &replay.records {
            let record = JournalRecord::decode_all(payload)?;
            record
                .apply(&mut server, &mut scratch)
                .map_err(|error| RecoveryError::Apply { seq: *seq, error })?;
            journal.append(payload);
            replayed += 1;
        }
        let report = RecoveryReport {
            replayed,
            epoch: server.epoch(),
            tail_error: replay.tail_error,
        };
        Ok((
            DurableCpmServer {
                server,
                journal,
                checkpoint_every,
                cycles_since_checkpoint: 0,
                snapshot_bytes: snapshot_bytes.to_vec(),
            },
            report,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PointQuery;
    use crate::server::CpmServerBuilder;

    fn seeded_server(threads: usize, deltas: bool) -> CpmServer {
        let mut s = CpmServerBuilder::new(16)
            .threads(NonZeroUsize::new(threads).unwrap())
            .deltas(deltas)
            .build();
        s.populate((0..50u32).map(|i| {
            let t = f64::from(i) / 50.0;
            (ObjectId(i), Point::new(t, (t * 3.7) % 1.0))
        }))
        .unwrap();
        let _ = s
            .install_spec(QueryId(0), PointQuery(Point::new(0.5, 0.5)), 3)
            .unwrap();
        let zone = crate::range::RangeQuery::circle(Point::new(0.3, 0.3), 0.2);
        let _ = s.install_spec(QueryId(1), zone, 1).unwrap();
        let _ = s.install_rnn(QueryId(2), Point::new(0.6, 0.4)).unwrap();
        s
    }

    fn drive(s: &mut CpmServer, cycles: u32) -> Vec<Vec<QueryId>> {
        let mut out = Vec::new();
        for step in 0..cycles {
            let events: Vec<ObjectEvent> = (0..6u32)
                .map(|i| ObjectEvent::Move {
                    id: ObjectId((step * 7 + i * 5) % 50),
                    to: Point::new(
                        (f64::from(step) * 0.13 + f64::from(i) * 0.07) % 1.0,
                        (f64::from(step) * 0.05 + f64::from(i) * 0.11) % 1.0,
                    ),
                })
                .collect();
            out.push(s.process_cycle(&events, &[]).unwrap());
        }
        out
    }

    #[test]
    fn snapshot_roundtrip_restores_an_identical_server() {
        for threads in [1usize, 4] {
            let mut original = seeded_server(threads, false);
            drive(&mut original, 5);
            let frame = Snapshot::capture(&original, 7).to_frame();
            let snap = Snapshot::from_frame(&frame).unwrap();
            assert_eq!(snap.watermark, 7);
            let mut restored = CpmServer::restore(&snap).unwrap();
            assert_eq!(restored.epoch(), original.epoch());
            assert_eq!(restored.query_count(), original.query_count());
            assert_eq!(
                restored.result(QueryId(0)).unwrap(),
                original.result(QueryId(0)).unwrap()
            );
            assert_eq!(
                restored.rnn_result(QueryId(2)).unwrap(),
                original.rnn_result(QueryId(2)).unwrap()
            );
            assert_eq!(restored.metrics(), original.metrics());
            restored.check_invariants();
            // Both lanes keep producing bit-identical changed lists.
            assert_eq!(drive(&mut restored, 5), drive(&mut original, 5));
        }
    }

    #[test]
    fn corrupted_snapshots_fail_typed_never_panic() {
        let mut s = seeded_server(2, false);
        drive(&mut s, 3);
        let frame = Snapshot::capture(&s, 0).to_frame();
        assert!(Snapshot::from_frame(&frame).is_ok());
        for cut in 0..frame.len() {
            assert!(Snapshot::from_frame(&frame[..cut]).is_err(), "cut {cut}");
        }
        for byte in (0..frame.len()).step_by(7) {
            let mut bad = frame.clone();
            bad[byte] ^= 0x40;
            assert!(Snapshot::from_frame(&bad).is_err(), "flip at {byte}");
        }
    }

    #[test]
    fn inconsistent_registries_are_rejected_at_decode() {
        let mut s = seeded_server(1, false);
        drive(&mut s, 2);
        let mut snap = Snapshot::capture(&s, 0);
        // An RNN registration whose composition state is missing would
        // later panic inside update_rnn; the decoder must refuse it.
        snap.rnn.clear();
        let frame = encode_framed(FRAME_SNAPSHOT, &snap);
        assert!(matches!(
            Snapshot::from_frame(&frame),
            Err(WireError::Invalid { .. })
        ));
    }

    #[test]
    fn object_ids_past_the_ceiling_are_rejected_at_decode() {
        let mut snap = Snapshot::capture(&seeded_server(1, false), 0);
        let past = (ObjectId(ObjectId::LIMIT), Point::new(0.5, 0.5));
        snap.engine.objects.push(past);
        let frame = encode_framed(FRAME_SNAPSHOT, &snap);
        assert!(matches!(
            Snapshot::from_frame(&frame),
            Err(WireError::Invalid { what, .. }) if what.contains("object-id ceiling")
        ));
    }

    #[test]
    fn durable_server_checkpoints_and_recovers() {
        let server = seeded_server(2, false);
        let mut durable = DurableCpmServer::new(server, 0);
        let mut reference = seeded_server(2, false);
        for step in 0..8u32 {
            let ev = [ObjectEvent::Move {
                id: ObjectId(step % 50),
                to: Point::new(f64::from(step) * 0.1 % 1.0, 0.4),
            }];
            let a = durable.process_cycle(&ev, &[]).unwrap();
            let b = reference.process_cycle(&ev, &[]).unwrap();
            assert_eq!(a, b);
            if step == 3 {
                durable.checkpoint();
                assert!(durable.journal_bytes().is_empty());
            }
        }
        let (recovered, report) =
            DurableCpmServer::recover(durable.snapshot_bytes(), durable.journal_bytes(), 0)
                .unwrap();
        assert_eq!(report.replayed, 4);
        assert!(report.tail_error.is_none());
        assert_eq!(recovered.server().epoch(), reference.epoch());
        assert_eq!(
            recovered.server().result(QueryId(0)).unwrap(),
            reference.result(QueryId(0)).unwrap()
        );
        recovered.server().check_invariants();
    }
}
