//! [`CpmServer`]: every continuous-query kind on **one grid, one cycle**.
//!
//! The paper's CPM framework is a single shared grid plus per-query
//! book-keeping that serves *all* registered queries per update cycle
//! (Figure 3.9); nothing in it is per query *type*. This facade makes the
//! public API match: a builder-configured server
//! (`CpmServerBuilder::new(dim).threads(4).build()`) hosts k-NN, range,
//! aggregate-NN, constrained and reverse-NN queries on a single engine
//! over [`AnyQuerySpec`], so a mixed workload pays the
//! grid — and the per-cycle ingest pass ([`cpm_grid::apply_events`]) —
//! exactly **once**, no matter how many kinds are registered. That is the
//! multiplexing shape location-aware pub/sub and distributed
//! range-monitoring systems assume, and what the road-map's
//! million-user target needs.
//!
//! The server is the one way in: every batch and every call is checked
//! here before the engine sees it, and the engine keeps no code for
//! input the server refuses.
//!
//! # One query surface
//!
//! A query is addressed by its [`QueryId`] alone and described by any
//! geometry that converts into an [`AnyQuerySpec`] — the same shape the
//! batched [`SpecEvent`]s, the cluster worker and the subscription
//! fan-out carry. Five calls manage queries:
//! [`CpmServer::install_spec`], [`CpmServer::update_spec`],
//! [`CpmServer::install_rnn`], [`CpmServer::update_rnn`] and
//! [`CpmServer::terminate`]. An update whose spec is of another kind than
//! the installed query is a [`CpmError::KindMismatch`], and a geometry
//! with a NaN or infinite coordinate is a [`CpmError::NonFiniteQuery`],
//! both before any state changes.
//!
//! # Reverse-NN composition
//!
//! RNN is the one kind that is not a single [`QuerySpec`]: a registration
//! expands into six sector-constrained candidate queries
//! ([`crate::RnnQuery`]) on ids in a reserved internal band, plus a
//! per-cycle circle-verification pass over the shared grid. The server
//! owns that composition; internal ids never appear in changed lists,
//! deltas, or results. RNN registrations are managed through direct calls
//! ([`CpmServer::install_rnn`], [`CpmServer::update_rnn`],
//! [`CpmServer::terminate`]); the batched query-event path addresses the
//! single-spec kinds.
//!
//! [`cpm_grid::apply_events`]: cpm_grid::apply_events

use std::num::NonZeroUsize;

use cpm_geom::{FastHashMap, FastHashSet, ObjectId, Point, QueryId};
use cpm_grid::{Grid, Metrics, ObjectEvent, QueryKind};

use crate::any::AnyQuerySpec;
use crate::delta::CycleDeltas;
use crate::engine::{QuerySpec, SpecEvent, SpecQueryState};
use crate::error::CpmError;
use crate::neighbors::Neighbor;
use crate::range::RangeQuery;
use crate::regrid::RegridPolicy;
use crate::rnn::RnnQuery;
use crate::shard::CpmEngine;

/// Sectors per reverse-NN query (the six-region method).
pub(crate) const SECTORS: u32 = 6;

/// First id of the band the server reserves for internal queries (the
/// reverse-NN sector candidates). User query ids must stay below it.
pub const RESERVED_ID_BASE: u32 = 1 << 31;

/// Largest user id an RNN registration may use: its six sector ids
/// `RESERVED_ID_BASE + id·6 + s` must stay representable.
const RNN_MAX_ID: u32 = (u32::MAX - RESERVED_ID_BASE - (SECTORS - 1)) / SECTORS;

/// The `k` a query of `spec`'s geometry is installed with: range results
/// are membership sets, never capped, so a range install's `k` becomes
/// [`RangeQuery::UNBOUNDED_K`] whatever the caller passed.
pub(crate) fn install_k(spec: &AnyQuerySpec, k: usize) -> usize {
    if spec.kind() == QueryKind::Range {
        RangeQuery::UNBOUNDED_K
    } else {
        k
    }
}

/// Configures and builds a [`CpmServer`].
///
/// ```
/// use std::num::NonZeroUsize;
///
/// use cpm_core::CpmServerBuilder;
///
/// let two = NonZeroUsize::new(2).unwrap();
/// let server = CpmServerBuilder::new(64).threads(two).deltas(true).build();
/// assert_eq!(server.threads(), 2);
/// ```
#[derive(Debug, Clone)]
#[must_use = "the builder does nothing until build() is called"]
pub struct CpmServerBuilder {
    dim: u32,
    threads: NonZeroUsize,
    deltas: bool,
    regrid: RegridPolicy,
}

impl CpmServerBuilder {
    /// Start configuring a server over an empty `dim × dim` grid
    /// (maintenance on every hardware thread —
    /// [`std::thread::available_parallelism`] — delta capture off,
    /// manual re-gridding).
    pub fn new(dim: u32) -> Self {
        Self {
            dim,
            threads: std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN),
            deltas: false,
            regrid: RegridPolicy::Manual,
        }
    }

    /// Run per-cycle query maintenance on `threads` threads, the calling
    /// one included (`1` spawns none; results are bit-identical for
    /// every thread count).
    pub fn threads(mut self, threads: NonZeroUsize) -> Self {
        self.threads = threads;
        self
    }

    /// Capture per-cycle result deltas (cycles must then run through
    /// [`CpmServer::process_cycle_with_deltas_into`]).
    pub fn deltas(mut self, deltas: bool) -> Self {
        self.deltas = deltas;
        self
    }

    /// Set the online re-grid policy (default:
    /// [`RegridPolicy::Manual`]). With
    /// [`RegridPolicy::auto`](crate::RegridPolicy::auto) the server
    /// re-evaluates its grid resolution against the Section 4.1 cost
    /// model at cycle boundaries and migrates the index when the
    /// predicted gain clears the hysteresis bar — results, changed lists
    /// and delta streams stay bit-identical to a server built at the new
    /// δ from scratch.
    ///
    /// ```
    /// use cpm_core::{CpmServerBuilder, RegridPolicy};
    ///
    /// let server = CpmServerBuilder::new(64)
    ///     .regrid(RegridPolicy::auto())
    ///     .build();
    /// assert!(server.regrid_policy().is_auto());
    /// ```
    pub fn regrid(mut self, policy: RegridPolicy) -> Self {
        self.regrid = policy;
        self
    }

    /// Build the server, validating the grid dimension.
    ///
    /// # Errors
    /// [`CpmError::InvalidDim`] when `dim` is out of `1..=4096`.
    pub fn try_build(self) -> Result<CpmServer, CpmError> {
        let grid = cpm_grid::GridBuilder::new(self.dim).try_build()?;
        let mut engine = CpmEngine::with_grid(grid, self.threads);
        if self.deltas {
            engine.enable_deltas();
        }
        engine.set_regrid_policy(self.regrid);
        Ok(CpmServer {
            engine,
            kinds: FastHashMap::default(),
            rnn: FastHashMap::default(),
            verify_metrics: Metrics::default(),
            event_scratch: Vec::new(),
            seen_objects: Vec::new(),
            seen_pass: 0,
            seen_queries: FastHashSet::default(),
        })
    }

    /// Build the server.
    ///
    /// # Panics
    /// Panics when the configured grid dimension is out of `1..=4096`;
    /// use [`CpmServerBuilder::try_build`] to handle the error instead.
    pub fn build(self) -> CpmServer {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

#[derive(Debug)]
struct RnnState {
    q: Point,
    /// Last verified RNN set (sorted by object id).
    result: Vec<ObjectId>,
}

/// The unified multi-query monitoring server; see the
/// [module docs](self) for the design.
///
/// # Example
///
/// ```
/// use cpm_core::{CpmServerBuilder, PointQuery, RangeQuery};
/// use cpm_geom::{ObjectId, Point, QueryId, Rect};
/// use cpm_grid::ObjectEvent;
///
/// let mut server = CpmServerBuilder::new(64).build();
/// server.populate([
///     (ObjectId(0), Point::new(0.30, 0.30)),
///     (ObjectId(1), Point::new(0.52, 0.48)),
/// ]);
/// // Two kinds, one grid.
/// server.install_spec(QueryId(0), PointQuery(Point::new(0.5, 0.5)), 1).unwrap();
/// let zone = RangeQuery::rect(Rect::new(Point::new(0.0, 0.0), Point::new(0.4, 0.4)));
/// server.install_spec(QueryId(1), zone, 1).unwrap(); // k is ignored for a range
///
/// let changed = server
///     .process_cycle(
///         &[ObjectEvent::Move { id: ObjectId(0), to: Point::new(0.9, 0.9) }],
///         &[],
///     )
///     .unwrap();
/// assert_eq!(changed, vec![QueryId(1)]); // left the zone; k-NN unaffected
/// assert_eq!(server.result(QueryId(0)).unwrap()[0].id, ObjectId(1));
/// assert!(server.result(QueryId(1)).unwrap().is_empty());
/// ```
#[derive(Debug)]
pub struct CpmServer {
    engine: CpmEngine<AnyQuerySpec>,
    /// Kind registry of every *user-visible* query (RNN registrations
    /// appear here once, not per sector).
    kinds: FastHashMap<QueryId, QueryKind>,
    /// Reverse-NN composition state.
    rnn: FastHashMap<QueryId, RnnState>,
    /// RNN circle-verification work, kept apart from the engine's
    /// counters (merged into [`CpmServer::metrics`] snapshots).
    verify_metrics: Metrics,
    /// Scratch: validated + normalized query events, reused per cycle.
    event_scratch: Vec<SpecEvent<AnyQuerySpec>>,
    /// Scratch: per object id, the validation pass that last named it —
    /// the duplicate check without hashing. Grows to the largest id seen,
    /// at most [`ObjectId::LIMIT`] slots.
    seen_objects: Vec<u32>,
    seen_pass: u32,
    /// Scratch: the query ids a batch has named so far, cleared per
    /// cycle so a steady batch size never rehashes.
    seen_queries: FastHashSet<QueryId>,
}

/// The registry state [`CpmServer::export_registry`] hands to snapshot
/// capture: kind registry, RNN composition state (both ascending by
/// query id), and the RNN verification counters.
pub(crate) type ExportedRegistry = (
    Vec<(QueryId, QueryKind)>,
    Vec<(QueryId, Point, Vec<ObjectId>)>,
    Metrics,
);

impl CpmServer {
    pub(crate) fn sector_id(id: QueryId, sector: u32) -> QueryId {
        QueryId(RESERVED_ID_BASE + id.0 * SECTORS + sector)
    }

    // ---- durability surface (used by crate::snapshot) ----

    /// The underlying engine (snapshot capture reads it directly).
    pub(crate) fn engine(&self) -> &CpmEngine<AnyQuerySpec> {
        &self.engine
    }

    /// Export the server-side registry state for a snapshot: the kind
    /// registry and the reverse-NN composition state, both ascending by
    /// query id, plus the RNN verification counters.
    pub(crate) fn export_registry(&self) -> ExportedRegistry {
        let mut kinds: Vec<(QueryId, QueryKind)> =
            self.kinds.iter().map(|(&id, &k)| (id, k)).collect();
        kinds.sort_unstable_by_key(|&(id, _)| id);
        let mut rnn: Vec<(QueryId, Point, Vec<ObjectId>)> = self
            .rnn
            .iter()
            .map(|(&id, st)| (id, st.q, st.result.clone()))
            .collect();
        rnn.sort_unstable_by_key(|&(id, _, _)| id);
        (kinds, rnn, self.verify_metrics)
    }

    /// Reassemble a server from restored parts (the snapshot restore
    /// path; the decode layer has already cross-validated them).
    pub(crate) fn assemble(
        engine: CpmEngine<AnyQuerySpec>,
        kinds: Vec<(QueryId, QueryKind)>,
        rnn: Vec<(QueryId, Point, Vec<ObjectId>)>,
        verify_metrics: Metrics,
    ) -> Self {
        CpmServer {
            engine,
            kinds: kinds.into_iter().collect(),
            rnn: rnn
                .into_iter()
                .map(|(id, q, result)| (id, RnnState { q, result }))
                .collect(),
            verify_metrics,
            event_scratch: Vec::new(),
            seen_objects: Vec::new(),
            seen_pass: 0,
            seen_queries: FastHashSet::default(),
        }
    }

    fn check_fresh(kinds: &FastHashMap<QueryId, QueryKind>, id: QueryId) -> Result<(), CpmError> {
        if id.0 >= RESERVED_ID_BASE {
            return Err(CpmError::ReservedId(id));
        }
        if kinds.contains_key(&id) {
            return Err(CpmError::DuplicateQuery(id));
        }
        Ok(())
    }

    /// The install rule of the direct and the batched surface alike:
    /// validate installing `spec` as `id` without touching any state, and
    /// return the `k` to install with ([`install_k`]).
    fn check_install(
        kinds: &FastHashMap<QueryId, QueryKind>,
        id: QueryId,
        spec: &AnyQuerySpec,
        k: usize,
    ) -> Result<usize, CpmError> {
        Self::check_fresh(kinds, id)?;
        if spec.kind() == QueryKind::Rnn {
            // A bare sector spec is an internal detail of the composite
            // registration.
            return Err(CpmError::CompositeQuery(id));
        }
        if !spec.is_finite() {
            return Err(CpmError::NonFiniteQuery(id));
        }
        match install_k(spec, k) {
            0 => Err(CpmError::InvalidK(id)),
            k => Ok(k),
        }
    }

    fn check_kind(&self, id: QueryId, expected: QueryKind) -> Result<(), CpmError> {
        match self.kinds.get(&id) {
            None => Err(CpmError::UnknownQuery(id)),
            Some(&actual) if actual != expected => Err(CpmError::KindMismatch {
                id,
                expected,
                actual,
            }),
            Some(_) => Ok(()),
        }
    }

    // ---- population & introspection ----

    /// Bulk-load objects before any query is installed.
    ///
    /// # Panics
    /// Panics if queries are already installed.
    pub fn populate<I: IntoIterator<Item = (ObjectId, Point)>>(&mut self, objects: I) {
        self.engine.populate(objects);
    }

    /// The shared object index.
    #[must_use]
    pub fn grid(&self) -> &Grid {
        self.engine.grid()
    }

    /// Number of threads per-cycle maintenance runs on.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    /// The active re-grid policy (set at build time via
    /// [`CpmServerBuilder::regrid`]).
    #[must_use]
    pub fn regrid_policy(&self) -> &RegridPolicy {
        self.engine.regrid_policy()
    }

    /// Re-grid to a new resolution now, regardless of policy: rebuild the
    /// cell index from the (untouched) object store and re-register every
    /// query in ascending id order, so the state is bit-identical to a
    /// server built at `new_dim` from scratch. A re-grid changes no
    /// result and surfaces in no changed list or delta. Returns the
    /// number of objects migrated (0 if `new_dim` is the current
    /// dimension).
    ///
    /// # Errors
    /// [`CpmError::InvalidDim`] when `new_dim` is out of `1..=4096`; the
    /// grid is untouched on error.
    pub fn regrid_to(&mut self, new_dim: u32) -> Result<usize, CpmError> {
        self.engine.regrid_to(new_dim)
    }

    /// Whether cycles capture per-cycle result deltas (set at build time
    /// via [`CpmServerBuilder::deltas`]).
    #[must_use]
    pub fn collects_deltas(&self) -> bool {
        self.engine.collects_deltas()
    }

    /// Number of installed user-visible queries (an RNN registration
    /// counts once).
    #[must_use]
    pub fn query_count(&self) -> usize {
        self.kinds.len()
    }

    /// Ids of every installed user-visible query, ascending.
    #[must_use]
    pub fn query_ids(&self) -> Vec<QueryId> {
        let mut ids: Vec<QueryId> = self.kinds.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The kind of query `id`, if installed.
    #[must_use]
    pub fn kind_of(&self, id: QueryId) -> Option<QueryKind> {
        self.kinds.get(&id).copied()
    }

    /// The processing-cycle counter: 0 before any cycle, incremented by
    /// every cycle.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.engine.epoch()
    }

    /// The current result of query `id`, ascending by (aggregate)
    /// distance. `None` for unknown ids and for reverse-NN registrations
    /// (whose results are object sets — see [`CpmServer::rnn_result`]).
    #[must_use]
    pub fn result(&self, id: QueryId) -> Option<&[Neighbor]> {
        match self.kinds.get(&id) {
            Some(QueryKind::Rnn) | None => None,
            Some(_) => self.engine.result(id),
        }
    }

    /// The current reverse-NN set of registration `id`, sorted by object
    /// id. `None` for unknown ids and non-RNN queries.
    #[must_use]
    pub fn rnn_result(&self, id: QueryId) -> Option<&[ObjectId]> {
        self.rnn.get(&id).map(|st| st.result.as_slice())
    }

    /// Full engine book-keeping state of (non-RNN) query `id`.
    #[must_use]
    pub fn query_state(&self, id: QueryId) -> Option<&SpecQueryState<AnyQuerySpec>> {
        match self.kinds.get(&id) {
            Some(QueryKind::Rnn) | None => None,
            Some(_) => self.engine.query_state(id),
        }
    }

    /// Merged snapshot of the work counters (engine + RNN verification),
    /// including the per-kind breakdown ([`Metrics::by_kind`]).
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        let mut m = self.engine.metrics();
        m.merge(&self.verify_metrics);
        m
    }

    /// Take and reset the work counters.
    pub fn take_metrics(&mut self) -> Metrics {
        let mut m = self.engine.take_metrics();
        m.merge(&self.verify_metrics.take());
        m
    }

    /// Total memory footprint in the paper's memory units (Section 4.1).
    #[must_use]
    pub fn space_units(&self) -> usize {
        self.engine.space_units()
    }

    // ---- the query surface ----

    /// Install query `id` of any single-spec kind — a [`crate::PointQuery`]
    /// (k-NN), [`RangeQuery`], [`crate::AnnQuery`] or
    /// [`crate::ConstrainedQuery`], or an [`AnyQuerySpec`] holding one —
    /// the direct twin of a batched [`SpecEvent::Install`]. A range
    /// install has `k` normalized to [`RangeQuery::UNBOUNDED_K`]. Returns
    /// the freshly computed result.
    ///
    /// # Errors
    /// [`CpmError::ReservedId`], [`CpmError::DuplicateQuery`],
    /// [`CpmError::InvalidK`], [`CpmError::NonFiniteQuery`];
    /// [`CpmError::CompositeQuery`] for an RNN sector spec (composite
    /// queries install via [`CpmServer::install_rnn`]).
    pub fn install_spec(
        &mut self,
        id: QueryId,
        spec: impl Into<AnyQuerySpec>,
        k: usize,
    ) -> Result<&[Neighbor], CpmError> {
        let spec = spec.into();
        let k = Self::check_install(&self.kinds, id, &spec, k)?;
        self.kinds.insert(id, spec.kind());
        Ok(self.engine.install(id, spec, k))
    }

    /// Install a continuous reverse-NN query at `pos`: six sector
    /// candidates on reserved internal ids plus circle verification.
    /// Returns the verified RNN set.
    ///
    /// # Errors
    /// [`CpmError::ReservedId`] (also when `id` is too large for the
    /// sector-id mapping), [`CpmError::DuplicateQuery`],
    /// [`CpmError::NonFiniteQuery`].
    pub fn install_rnn(&mut self, id: QueryId, pos: Point) -> Result<&[ObjectId], CpmError> {
        Self::check_fresh(&self.kinds, id)?;
        if id.0 > RNN_MAX_ID {
            return Err(CpmError::ReservedId(id));
        }
        if !pos.is_finite() {
            return Err(CpmError::NonFiniteQuery(id));
        }
        for sector in 0..SECTORS {
            let spec = AnyQuerySpec::Rnn(RnnQuery::new(pos, sector));
            self.engine.install(Self::sector_id(id, sector), spec, 1);
        }
        let result = Self::verify_rnn(&self.engine, &mut self.verify_metrics, id);
        self.kinds.insert(id, QueryKind::Rnn);
        Ok(&self
            .rnn
            .entry(id)
            .or_insert(RnnState { q: pos, result })
            .result)
    }

    /// Replace the geometry of (non-RNN) query `id` with a spec of the
    /// *same kind*; returns the recomputed result.
    ///
    /// # Errors
    /// [`CpmError::UnknownQuery`]; [`CpmError::KindMismatch`] when the
    /// spec's kind differs from the registered kind;
    /// [`CpmError::CompositeQuery`] when the spec is an RNN sector (a
    /// reverse-NN registration moves via [`CpmServer::update_rnn`]);
    /// [`CpmError::NonFiniteQuery`].
    pub fn update_spec(
        &mut self,
        id: QueryId,
        spec: impl Into<AnyQuerySpec>,
    ) -> Result<&[Neighbor], CpmError> {
        let spec = spec.into();
        self.check_kind(id, spec.kind())?;
        if spec.kind() == QueryKind::Rnn {
            // A bare sector spec can never address a composite
            // registration.
            return Err(CpmError::CompositeQuery(id));
        }
        if !spec.is_finite() {
            return Err(CpmError::NonFiniteQuery(id));
        }
        Ok(self.engine.update_spec(id, spec))
    }

    /// Move reverse-NN query `id` to `pos`; returns the re-verified RNN
    /// set.
    ///
    /// # Errors
    /// [`CpmError::UnknownQuery`]; [`CpmError::KindMismatch`] when `id`
    /// is not a reverse-NN registration; [`CpmError::NonFiniteQuery`].
    pub fn update_rnn(&mut self, id: QueryId, pos: Point) -> Result<&[ObjectId], CpmError> {
        self.check_kind(id, QueryKind::Rnn)?;
        if !pos.is_finite() {
            return Err(CpmError::NonFiniteQuery(id));
        }
        for sector in 0..SECTORS {
            let spec = AnyQuerySpec::Rnn(RnnQuery::new(pos, sector));
            self.engine.update_spec(Self::sector_id(id, sector), spec);
        }
        let result = Self::verify_rnn(&self.engine, &mut self.verify_metrics, id);
        let st = self.rnn.get_mut(&id).expect("kind-checked RNN state");
        st.q = pos;
        st.result = result;
        Ok(&st.result)
    }

    /// Terminate query `id`, of any kind.
    ///
    /// # Errors
    /// [`CpmError::UnknownQuery`] if `id` is not installed.
    pub fn terminate(&mut self, id: QueryId) -> Result<(), CpmError> {
        match self.kinds.get(&id) {
            None => Err(CpmError::UnknownQuery(id)),
            Some(QueryKind::Rnn) => {
                for sector in 0..SECTORS {
                    self.engine.terminate(Self::sector_id(id, sector));
                }
                self.rnn.remove(&id);
                self.kinds.remove(&id);
                Ok(())
            }
            Some(_) => {
                self.engine.terminate(id);
                self.kinds.remove(&id);
                Ok(())
            }
        }
    }

    // ---- cycles ----

    /// Validate a cycle's query-event batch against the registry without
    /// touching any state, and stage a normalized copy in
    /// `event_scratch`. Events address the single-spec kinds; RNN
    /// registrations are managed through the direct calls
    /// ([`CpmError::CompositeQuery`] otherwise). Range installs have `k`
    /// normalized to [`RangeQuery::UNBOUNDED_K`] (range results are
    /// membership sets, never capped).
    fn stage_events(&mut self, query_events: &[SpecEvent<AnyQuerySpec>]) -> Result<(), CpmError> {
        let Self {
            kinds,
            event_scratch,
            seen_queries: seen,
            ..
        } = self;
        event_scratch.clear();
        // One event per query per batch (the subscription hub's rule,
        // promoted to a typed error): a second event for the same id
        // would make changed-list and delta ordering ambiguous.
        seen.clear();
        for ev in query_events {
            if !seen.insert(ev.id()) {
                return Err(CpmError::DuplicateQuery(ev.id()));
            }
            match ev {
                SpecEvent::Install { id, spec, k } => {
                    let k = Self::check_install(kinds, *id, spec, *k)?;
                    event_scratch.push(SpecEvent::Install {
                        id: *id,
                        spec: spec.clone(),
                        k,
                    });
                }
                SpecEvent::Update { id, spec } => {
                    let expected = spec.kind();
                    match kinds.get(id).copied() {
                        None => return Err(CpmError::UnknownQuery(*id)),
                        Some(QueryKind::Rnn) => return Err(CpmError::CompositeQuery(*id)),
                        Some(actual) if actual != expected => {
                            return Err(CpmError::KindMismatch {
                                id: *id,
                                expected,
                                actual,
                            })
                        }
                        Some(_) => {}
                    }
                    if !spec.is_finite() {
                        return Err(CpmError::NonFiniteQuery(*id));
                    }
                    event_scratch.push(ev.clone());
                }
                SpecEvent::Terminate { id } => {
                    match kinds.get(id).copied() {
                        None => return Err(CpmError::UnknownQuery(*id)),
                        Some(QueryKind::Rnn) => return Err(CpmError::CompositeQuery(*id)),
                        Some(_) => {}
                    }
                    event_scratch.push(ev.clone());
                }
            }
        }
        Ok(())
    }

    /// Validate an object-event batch before any state changes: an id at
    /// or above [`ObjectId::LIMIT`], two events for one object in a batch,
    /// a NaN/infinite coordinate, a position outside the unit workspace,
    /// or a move or disappear of an off-line object or an appear of a live
    /// one are typed errors and the whole batch is rejected — a corrupted
    /// producer cannot half-apply a cycle. The first offending event
    /// decides the error. One event per object makes the pre-batch grid
    /// the state each event is checked against.
    fn validate_object_events(&mut self, object_events: &[ObjectEvent]) -> Result<(), CpmError> {
        // A fresh pass number marks this batch; on wrap-around, stale
        // marks from 2³² passes ago must not read as this batch's.
        self.seen_pass = self.seen_pass.wrapping_add(1);
        if self.seen_pass == 0 {
            self.seen_objects.fill(0);
            self.seen_pass = 1;
        }
        let (seen, pass) = (&mut self.seen_objects, self.seen_pass);
        let grid = self.engine.grid();
        for ev in object_events {
            let id = ev.id();
            if id.0 >= ObjectId::LIMIT {
                return Err(CpmError::ObjectIdOutOfRange(id));
            }
            if id.index() >= seen.len() {
                seen.resize(id.index() + 1, 0);
            }
            if std::mem::replace(&mut seen[id.index()], pass) == pass {
                return Err(CpmError::DuplicateObject(id));
            }
            if let Some(p) = ev.position() {
                if !p.x.is_finite() || !p.y.is_finite() {
                    return Err(CpmError::NonFiniteCoordinate(id));
                }
                if !(0.0..=1.0).contains(&p.x) || !(0.0..=1.0).contains(&p.y) {
                    return Err(CpmError::OutOfWorkspace(id));
                }
            }
            // Only an appear wants its object off-line so far.
            let live = grid.position(id).is_some();
            if live == matches!(ev, ObjectEvent::Appear { .. }) {
                return Err(CpmError::Liveness { id, live });
            }
        }
        Ok(())
    }

    /// Fold a staged (validated) event batch into the kind registry.
    fn apply_registry(&mut self) {
        for i in 0..self.event_scratch.len() {
            match &self.event_scratch[i] {
                SpecEvent::Install { id, spec, .. } => {
                    self.kinds.insert(*id, spec.kind());
                }
                SpecEvent::Terminate { id } => {
                    self.kinds.remove(id);
                }
                SpecEvent::Update { .. } => {}
            }
        }
    }

    /// Re-verify every RNN registration after a cycle, appending the ids
    /// whose set changed.
    fn reverify_rnn(&mut self, changed: &mut Vec<QueryId>) {
        if self.rnn.is_empty() {
            return;
        }
        let ids: Vec<QueryId> = self.rnn.keys().copied().collect();
        for id in ids {
            let fresh = Self::verify_rnn(&self.engine, &mut self.verify_metrics, id);
            let st = self.rnn.get_mut(&id).expect("registered");
            if fresh != st.result {
                st.result = fresh;
                changed.push(id);
            }
        }
    }

    /// Run one processing cycle: **one** grid ingest pass over
    /// `object_events`, maintenance of every installed query of every
    /// kind and this cycle's query events on the server's threads, then
    /// RNN re-verification. Returns the user-visible queries whose result
    /// changed, ascending by id.
    ///
    /// Both event batches are validated *before* any state changes; on
    /// `Err` the cycle did not run.
    ///
    /// # Errors
    /// [`CpmError::DuplicateQuery`] / [`CpmError::UnknownQuery`] /
    /// [`CpmError::KindMismatch`] / [`CpmError::InvalidK`] /
    /// [`CpmError::ReservedId`] / [`CpmError::CompositeQuery`] /
    /// [`CpmError::NonFiniteQuery`] for an invalid query-event batch;
    /// [`CpmError::ObjectIdOutOfRange`] / [`CpmError::NonFiniteCoordinate`]
    /// / [`CpmError::OutOfWorkspace`] / [`CpmError::DuplicateObject`] /
    /// [`CpmError::Liveness`] for an invalid object-event batch.
    ///
    /// # Panics
    /// Panics if the server was built with
    /// [`CpmServerBuilder::deltas`]`(true)` — use
    /// [`CpmServer::process_cycle_with_deltas_into`].
    pub fn process_cycle(
        &mut self,
        object_events: &[ObjectEvent],
        query_events: &[SpecEvent<AnyQuerySpec>],
    ) -> Result<Vec<QueryId>, CpmError> {
        self.validate_object_events(object_events)?;
        self.stage_events(query_events)?;
        let events = std::mem::take(&mut self.event_scratch);
        let mut changed = self.engine.process_cycle(object_events, &events);
        self.event_scratch = events;
        self.apply_registry();
        changed.retain(|q| q.0 < RESERVED_ID_BASE);
        self.reverify_rnn(&mut changed);
        changed.sort_unstable();
        Ok(changed)
    }

    /// Run one processing cycle and refill `out` with the cycle's
    /// [`crate::NeighborDelta`]s alongside the changed list (both
    /// ascending by query id; internal RNN candidate ids never appear).
    /// RNN registrations report membership changes in the changed list
    /// but emit no deltas (their results are object sets, not neighbor
    /// lists).
    ///
    /// # Errors
    /// As [`CpmServer::process_cycle`]; on `Err` the cycle did not run.
    ///
    /// # Panics
    /// Panics unless the server was built with
    /// [`CpmServerBuilder::deltas`]`(true)`.
    pub fn process_cycle_with_deltas_into(
        &mut self,
        object_events: &[ObjectEvent],
        query_events: &[SpecEvent<AnyQuerySpec>],
        out: &mut CycleDeltas,
    ) -> Result<(), CpmError> {
        self.validate_object_events(object_events)?;
        self.stage_events(query_events)?;
        let events = std::mem::take(&mut self.event_scratch);
        self.engine
            .process_cycle_with_deltas_into(object_events, &events, out);
        self.event_scratch = events;
        self.apply_registry();
        out.changed.retain(|q| q.0 < RESERVED_ID_BASE);
        out.deltas.retain(|(q, _)| q.0 < RESERVED_ID_BASE);
        self.reverify_rnn(&mut out.changed);
        out.changed.sort_unstable();
        Ok(())
    }

    /// Collect the sector candidates of RNN query `id` and keep those
    /// whose verification circle contains no other object.
    fn verify_rnn(
        engine: &CpmEngine<AnyQuerySpec>,
        metrics: &mut Metrics,
        id: QueryId,
    ) -> Vec<ObjectId> {
        let mut out = Vec::new();
        let mut dist_buf = Vec::new();
        for sector in 0..SECTORS {
            let Some(result) = engine.result(Self::sector_id(id, sector)) else {
                continue;
            };
            let Some(candidate) = result.first() else {
                continue;
            };
            let (cid, cdist) = (candidate.id, candidate.dist);
            let cpos = engine.grid().position(cid).expect("candidate is live");
            if Self::circle_is_empty(engine.grid(), metrics, cpos, cdist, cid, &mut dist_buf) {
                out.push(cid);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// `true` if no object other than `exclude` lies strictly within
    /// `radius` of `center`.
    fn circle_is_empty(
        grid: &Grid,
        metrics: &mut Metrics,
        center: Point,
        radius: f64,
        exclude: ObjectId,
        dist_buf: &mut Vec<f64>,
    ) -> bool {
        let rnn = QueryKind::Rnn as usize;
        for cell in grid.cells_in_circle(center, radius) {
            metrics.cell_accesses += 1;
            metrics.by_kind[rnn].cell_accesses += 1;
            // Distances come from the shared batched kernel; the consume
            // loop below keeps the pre-kernel early-exit semantics (and
            // work counters) exactly: `exclude` is skipped before
            // counting, and the first hit stops the scan mid-bucket.
            let oids = grid.objects_in(cell);
            cpm_grid::kernels::dist_into(grid.coords(), center, oids, dist_buf);
            for (&oid, &d) in oids.iter().zip(dist_buf.iter()) {
                if oid == exclude {
                    continue;
                }
                metrics.objects_processed += 1;
                metrics.by_kind[rnn].objects_processed += 1;
                if d < radius {
                    return false;
                }
            }
        }
        true
    }

    /// Verify engine invariants plus server registry consistency (test
    /// helper).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.engine.check_invariants();
        let mut engine_queries = 0usize;
        for (&id, &kind) in &self.kinds {
            assert!(id.0 < RESERVED_ID_BASE, "user id in the reserved band");
            if kind == QueryKind::Rnn {
                assert!(self.rnn.contains_key(&id), "RNN registration without state");
                for sector in 0..SECTORS {
                    let st = self
                        .engine
                        .query_state(Self::sector_id(id, sector))
                        .expect("sector query installed");
                    assert_eq!(st.spec.kind(), QueryKind::Rnn);
                }
                engine_queries += SECTORS as usize;
            } else {
                let st = self.engine.query_state(id).expect("registered query");
                assert_eq!(st.spec.kind(), kind, "registry kind out of sync");
                engine_queries += 1;
            }
        }
        assert_eq!(self.rnn.len(), {
            self.kinds
                .values()
                .filter(|&&k| k == QueryKind::Rnn)
                .count()
        });
        assert_eq!(
            engine_queries,
            self.engine.query_count(),
            "stray engine queries"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PointQuery;
    use crate::{AggregateFn, AnnQuery, ConstrainedQuery};
    use cpm_geom::Rect;

    fn small_server(threads: usize) -> CpmServer {
        let threads = NonZeroUsize::new(threads).unwrap();
        let mut s = CpmServerBuilder::new(16).threads(threads).build();
        s.populate((0..40u32).map(|i| {
            let t = i as f64 / 40.0;
            (ObjectId(i), Point::new(t, (t * 7.0) % 1.0))
        }));
        s
    }

    #[test]
    fn typed_installs_reject_registry_misuse() {
        let mut s = small_server(1);
        let _ = s
            .install_spec(QueryId(0), PointQuery(Point::new(0.5, 0.5)), 3)
            .unwrap();
        assert_eq!(
            s.install_spec(QueryId(0), RangeQuery::circle(Point::new(0.5, 0.5), 0.1), 1)
                .unwrap_err(),
            CpmError::DuplicateQuery(QueryId(0))
        );
        assert_eq!(
            s.install_spec(QueryId(1), PointQuery(Point::new(0.5, 0.5)), 0)
                .unwrap_err(),
            CpmError::InvalidK(QueryId(1))
        );
        assert_eq!(
            s.install_spec(
                QueryId(RESERVED_ID_BASE),
                PointQuery(Point::new(0.5, 0.5)),
                1
            )
            .unwrap_err(),
            CpmError::ReservedId(QueryId(RESERVED_ID_BASE))
        );
        // Kind confusion is a typed error, and nothing changes.
        assert_eq!(
            s.update_spec(QueryId(0), RangeQuery::circle(Point::new(0.1, 0.1), 0.1))
                .unwrap_err(),
            CpmError::KindMismatch {
                id: QueryId(0),
                expected: QueryKind::Range,
                actual: QueryKind::Knn,
            }
        );
        assert_eq!(
            s.update_rnn(QueryId(0), Point::new(0.1, 0.1)).unwrap_err(),
            CpmError::KindMismatch {
                id: QueryId(0),
                expected: QueryKind::Rnn,
                actual: QueryKind::Knn,
            }
        );
        let moved = PointQuery(Point::new(0.2, 0.2));
        assert_eq!(s.update_spec(QueryId(0), moved).unwrap().len(), 3);
        assert_eq!(
            s.terminate(QueryId(9)).unwrap_err(),
            CpmError::UnknownQuery(QueryId(9))
        );
        s.terminate(QueryId(0)).unwrap();
        assert_eq!(
            s.update_spec(QueryId(0), moved).unwrap_err(),
            CpmError::UnknownQuery(QueryId(0))
        );
        s.check_invariants();
    }

    #[test]
    fn every_kind_coexists_on_one_grid() {
        for threads in [1usize, 4] {
            let mut s = small_server(threads);
            let specs: [(AnyQuerySpec, usize); 4] = [
                (PointQuery(Point::new(0.5, 0.5)).into(), 3),
                (
                    RangeQuery::rect(Rect::new(Point::new(0.2, 0.2), Point::new(0.7, 0.7))).into(),
                    1,
                ),
                (
                    AnnQuery::new(
                        vec![Point::new(0.3, 0.3), Point::new(0.6, 0.6)],
                        AggregateFn::Sum,
                    )
                    .into(),
                    2,
                ),
                (
                    ConstrainedQuery::northeast_of(Point::new(0.4, 0.4)).into(),
                    2,
                ),
            ];
            for (id, (spec, k)) in (0..).map(QueryId).zip(specs) {
                let _ = s.install_spec(id, spec, k).unwrap();
            }
            let (rnn, con) = (QueryId(4), QueryId(3));
            let _ = s.install_rnn(rnn, Point::new(0.55, 0.45)).unwrap();
            assert_eq!(s.query_count(), 5);
            assert_eq!(s.kind_of(rnn), Some(QueryKind::Rnn));
            for id in (0..4).map(QueryId) {
                assert!(s.result(id).is_some());
            }
            assert!(s.result(rnn).is_none(), "RNN results are sets");
            assert!(s.rnn_result(rnn).is_some());
            s.check_invariants();

            // One cycle, one ingest: updates_applied counts each event
            // exactly once no matter how many kinds are registered.
            s.take_metrics();
            let events: Vec<ObjectEvent> = (0..10u32)
                .map(|i| ObjectEvent::Move {
                    id: ObjectId(i),
                    to: Point::new(0.9 - i as f64 / 40.0, 0.1),
                })
                .collect();
            s.process_cycle(&events, &[]).unwrap();
            let m = s.take_metrics();
            assert_eq!(m.updates_applied, events.len() as u64);
            s.check_invariants();

            s.terminate(rnn).unwrap();
            s.terminate(con).unwrap();
            assert_eq!(s.query_count(), 3);
            s.check_invariants();
        }
    }

    #[test]
    fn event_batches_are_validated_before_running() {
        let mut s = small_server(2);
        let _ = s
            .install_spec(QueryId(0), PointQuery(Point::new(0.5, 0.5)), 2)
            .unwrap();
        let epoch = s.epoch();
        // Unknown update: rejected, cycle did not run.
        let err = s
            .process_cycle(
                &[],
                &[SpecEvent::Update {
                    id: QueryId(7),
                    spec: AnyQuerySpec::Knn(PointQuery(Point::new(0.1, 0.1))),
                }],
            )
            .unwrap_err();
        assert_eq!(err, CpmError::UnknownQuery(QueryId(7)));
        assert_eq!(
            s.epoch(),
            epoch,
            "failed batches must not advance the epoch"
        );
        // Two events for one id in a batch would make delta ordering
        // ambiguous: rejected up front.
        assert_eq!(
            s.process_cycle(
                &[],
                &[
                    SpecEvent::Install {
                        id: QueryId(1),
                        spec: AnyQuerySpec::Range(RangeQuery::circle(Point::new(0.4, 0.4), 0.2)),
                        k: 1,
                    },
                    SpecEvent::Update {
                        id: QueryId(1),
                        spec: AnyQuerySpec::Range(RangeQuery::circle(Point::new(0.5, 0.5), 0.3)),
                    },
                ],
            )
            .unwrap_err(),
            CpmError::DuplicateQuery(QueryId(1))
        );
        // A batched install lands in the registry, with range k normalized
        // to the unbounded sentinel.
        let changed = s
            .process_cycle(
                &[],
                &[SpecEvent::Install {
                    id: QueryId(1),
                    spec: AnyQuerySpec::Range(RangeQuery::circle(Point::new(0.5, 0.5), 0.3)),
                    k: 1, // normalized
                }],
            )
            .unwrap();
        assert_eq!(changed, vec![QueryId(1)]);
        let st = s.query_state(QueryId(1)).unwrap();
        assert_eq!(st.k(), RangeQuery::UNBOUNDED_K);
        assert_eq!(
            s.process_cycle(
                &[],
                &[SpecEvent::Install {
                    id: QueryId(1),
                    spec: AnyQuerySpec::Knn(PointQuery(Point::new(0.5, 0.5))),
                    k: 1,
                }],
            )
            .unwrap_err(),
            CpmError::DuplicateQuery(QueryId(1))
        );
        // Terminate through the batch updates the registry.
        s.process_cycle(&[], &[SpecEvent::Terminate { id: QueryId(1) }])
            .unwrap();
        assert_eq!(s.kind_of(QueryId(1)), None);
        // Composite RNN registrations cannot be addressed through the
        // single-spec event surface.
        let _ = s.install_rnn(QueryId(3), Point::new(0.5, 0.5)).unwrap();
        assert_eq!(
            s.process_cycle(&[], &[SpecEvent::Terminate { id: QueryId(3) }])
                .unwrap_err(),
            CpmError::CompositeQuery(QueryId(3))
        );
        assert_eq!(
            s.update_spec(QueryId(3), RnnQuery::new(Point::new(0.1, 0.1), 0))
                .unwrap_err(),
            CpmError::CompositeQuery(QueryId(3))
        );
        s.terminate(QueryId(3)).unwrap();
        s.check_invariants();
    }

    #[test]
    fn per_kind_metrics_partition_the_flat_counters() {
        let mut s = small_server(1);
        let _ = s
            .install_spec(QueryId(0), PointQuery(Point::new(0.5, 0.5)), 4)
            .unwrap();
        let zone = RangeQuery::rect(Rect::new(Point::new(0.1, 0.1), Point::new(0.6, 0.6)));
        let _ = s.install_spec(QueryId(1), zone, 1).unwrap();
        let _ = s.install_rnn(QueryId(2), Point::new(0.4, 0.6)).unwrap();
        for step in 0..8u32 {
            let events: Vec<ObjectEvent> = (0..8u32)
                .map(|i| ObjectEvent::Move {
                    id: ObjectId(i * 4 % 40),
                    to: Point::new(
                        (step as f64 * 0.11 + i as f64 * 0.07) % 1.0,
                        (step as f64 * 0.05 + i as f64 * 0.13) % 1.0,
                    ),
                })
                .collect();
            s.process_cycle(&events, &[]).unwrap();
        }
        let m = s.metrics();
        assert!(m.for_kind(QueryKind::Knn).computations >= 1);
        assert!(m.for_kind(QueryKind::Range).computations >= 1);
        assert!(m.for_kind(QueryKind::Rnn).computations >= 6);
        // The by-kind breakdown partitions every query-side counter.
        let sum = |f: fn(&cpm_grid::KindMetrics) -> u64| -> u64 {
            QueryKind::ALL.iter().map(|&k| f(m.for_kind(k))).sum()
        };
        assert_eq!(sum(|k| k.computations), m.computations);
        assert_eq!(sum(|k| k.cell_accesses), m.cell_accesses);
        assert_eq!(sum(|k| k.objects_processed), m.objects_processed);
        assert_eq!(sum(|k| k.heap_pushes), m.heap_pushes);
        assert_eq!(sum(|k| k.heap_pops), m.heap_pops);
        assert_eq!(sum(|k| k.recomputations), m.recomputations);
        assert_eq!(sum(|k| k.merge_resolutions), m.merge_resolutions);
    }

    #[test]
    fn delta_cycles_never_leak_internal_ids() {
        let two = NonZeroUsize::new(2).unwrap();
        let mut s = CpmServerBuilder::new(16).threads(two).deltas(true).build();
        assert!(s.collects_deltas());
        s.populate((0..30u32).map(|i| (ObjectId(i), Point::new(i as f64 / 30.0, 0.5))));
        let _ = s
            .install_spec(QueryId(0), PointQuery(Point::new(0.05, 0.5)), 3)
            .unwrap();
        let _ = s.install_rnn(QueryId(1), Point::new(0.8, 0.5)).unwrap();
        let mut out = CycleDeltas::default();
        for step in 0..6u32 {
            s.process_cycle_with_deltas_into(
                &[ObjectEvent::Move {
                    id: ObjectId(step % 30),
                    to: Point::new(0.8 - step as f64 / 60.0, 0.5),
                }],
                &[],
                &mut out,
            )
            .unwrap();
            for qid in &out.changed {
                assert!(qid.0 < RESERVED_ID_BASE, "internal id leaked: {qid}");
            }
            for (qid, _) in &out.deltas {
                assert!(qid.0 < RESERVED_ID_BASE, "internal delta leaked: {qid}");
            }
        }
        s.check_invariants();
    }
}
