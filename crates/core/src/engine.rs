//! The generic CPM engine: conceptual-partitioning monitoring over any
//! query geometry.
//!
//! Section 5 argues that "CPM provides a general methodology that can be
//! applied to several types of spatial queries". This module is that claim
//! made executable: the search/maintenance machinery of Section 3 —
//! best-first traversal of cells and conceptual rectangles, visit list,
//! search heap, influence lists, batched in/out update handling — written
//! once, parameterized by a [`QuerySpec`] that supplies:
//!
//! * the (aggregate) distance from the query to a point,
//! * the lower-bound key of a cell (`mindist` / `amindist`),
//! * the key of a conceptual rectangle and its per-level increment
//!   (Lemma 3.1, Corollaries 5.1 and 5.2),
//! * the base block of cells that seeds the search (the query cell for a
//!   point query, the cells covering the MBR `M` for an aggregate query),
//! * optional admission predicates for constrained variants.
//!
//! # Processing cycle: ingest, then route → group → resolve
//!
//! The engine is structured so a cycle splits cleanly into a *mutating*
//! and an *immutable* phase:
//!
//! 1. **Grid ingest** ([`cpm_grid::apply_events`]): the update batch is
//!    applied to the grid sequentially, producing one
//!    [`cpm_grid::UpdateRecord`] per event.
//! 2. **Query maintenance** (`EngineCore`), against an immutable `&Grid`.
//!    Figure 3.8 handles a timestamp's updates per query ("for each query
//!    q … affected by updates in U_P"), and so does
//!    `EngineCore::apply_records`: it *routes* the records through the
//!    influence lists into `(query, record, departure | arrival)` pairs,
//!    *groups* the pairs by query with a counting sort over the dense
//!    query-table slots the lists hold, and *resolves* one query at a
//!    time — its departures and arrivals in batch order, then
//!    merge-or-recompute and change detection — so each query's ~2 KB of
//!    state is pulled into cache once per cycle rather than once per
//!    pair. Query events run afterwards. All per-query state (query
//!    table, influence table, metrics, scratch buffers) lives in the
//!    `EngineCore`, so several cores over *disjoint query sets* can
//!    process the same record batch concurrently — that is exactly what
//!    [`crate::ShardedCpmEngine`] does with `std::thread::scope`.
//!
//! `EngineCore` is the only implementation of Figures 3.4–3.9 in the
//! suite: the paper's k-NN workload is the [`PointQuery`] geometry, and
//! the Section 5 variants ([`crate::ann`], [`crate::constrained`],
//! [`crate::range`], [`crate::rnn`]) are further [`QuerySpec`]s. It is
//! driven by [`crate::ShardedCpmEngine`] (one core per shard; one shard is
//! the sequential engine) and, through it, by [`crate::CpmServer`].

use cpm_geom::{FastHashMap, FastHashSet, ObjectId, Point, QueryId};
use cpm_grid::{
    kernels, CellCoord, Coords, Grid, GridGeom, InfluenceTable, Metrics, QueryEvent, QueryKind,
    UpdateRecord,
};

use crate::delta::NeighborDelta;
use crate::error::CpmError;
use crate::heap::{HeapEntry, SearchHeap};
use crate::inlist::InList;
use crate::neighbors::{Neighbor, NeighborList};
use crate::partition::{Direction, Pinwheel};

/// Query geometry: everything the CPM machinery needs to know about a
/// query in order to search for it and maintain its result.
///
/// Specs consume only the conceptual cell geometry ([`GridGeom`]) — never
/// the index that stores the objects.
///
/// Implementations must uphold two contracts, both property-tested by the
/// monitors built on the engine:
///
/// 1. **Lower bound**: `cell_key(geom, c) ≤ dist(p)` for every point `p`
///    inside cell `c`, and `strip_key(pw, dir, lvl) ≤ cell_key(geom, c)`
///    for every cell `c` of strip `DIR_lvl`.
/// 2. **Increment** (Lemma 3.1 / Corollaries 5.1, 5.2):
///    `strip_key(pw, dir, lvl+1) = strip_key(pw, dir, lvl) +
///    strip_increment(δ)`.
pub trait QuerySpec: std::fmt::Debug + Clone {
    /// The (aggregate) distance from the query to point `p`. May be
    /// `+∞` to signal that `p` can never be part of the result
    /// (constrained queries).
    fn dist(&self, p: Point) -> f64;

    /// Batched [`QuerySpec::dist`] over one cell bucket: fill `out` with
    /// the distance to every object of `oids`, reading positions from
    /// the grid's struct-of-arrays columns (`out[i] =
    /// dist(position(oids[i]))`). The engine's bucket scans call this
    /// with a per-query reused buffer.
    ///
    /// Implementations must be **bit-identical** to the per-object
    /// scalar path — same `f64` bits, hence the same `total_cmp`
    /// ordering, results, changed lists and delta streams. The default
    /// simply loops over `dist`; [`PointQuery`] overrides it with the
    /// vectorized kernel ([`cpm_grid::kernels`]), whose conformance
    /// suite asserts the bit-equality.
    #[inline]
    fn dist_batch(&self, coords: Coords<'_>, oids: &[ObjectId], out: &mut Vec<f64>) {
        out.clear();
        out.extend(oids.iter().map(|&oid| self.dist(coords.point(oid))));
    }

    /// The inclusive cell block that seeds the search: `(lo, hi)` corners.
    /// For a point query this is the query cell twice.
    fn base_block(&self, geom: GridGeom) -> (CellCoord, CellCoord);

    /// Lower-bound key of a cell (`mindist` or `amindist`).
    fn cell_key(&self, geom: GridGeom, cell: CellCoord) -> f64;

    /// Lower-bound key of conceptual rectangle `DIR_lvl`.
    fn strip_key(&self, pw: &Pinwheel, dir: Direction, lvl: u32) -> f64;

    /// Key increment between consecutive levels of one direction
    /// (`δ` for point/min/max queries, `m·δ` for sum).
    fn strip_increment(&self, delta: f64) -> f64;

    /// Whether a cell may contain qualifying objects. Non-admitted cells
    /// are not en-heaped (constrained search, Section 5 / Figure 5.3).
    fn admits_cell(&self, _geom: GridGeom, _cell: CellCoord) -> bool {
        true
    }

    /// The query class this geometry belongs to, used to attribute work
    /// counters in mixed workloads ([`cpm_grid::Metrics::by_kind`]).
    /// Point-distance specs default to [`QueryKind::Knn`].
    fn kind(&self) -> QueryKind {
        QueryKind::Knn
    }
}

/// The plain point k-NN query as an engine geometry: Euclidean distance,
/// `mindist` cell keys, the query cell as base block (Section 3) — the
/// paper's core workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointQuery(pub Point);

impl QuerySpec for PointQuery {
    #[inline]
    fn dist(&self, p: Point) -> f64 {
        self.0.dist(p)
    }

    #[inline]
    fn dist_batch(&self, coords: Coords<'_>, oids: &[ObjectId], out: &mut Vec<f64>) {
        kernels::dist_into(coords, self.0, oids, out);
    }

    fn base_block(&self, geom: GridGeom) -> (CellCoord, CellCoord) {
        let c = geom.cell_of(self.0);
        (c, c)
    }

    #[inline]
    fn cell_key(&self, geom: GridGeom, cell: CellCoord) -> f64 {
        geom.mindist(cell, self.0)
    }

    #[inline]
    fn strip_key(&self, pw: &Pinwheel, dir: Direction, lvl: u32) -> f64 {
        pw.strip_mindist(dir, lvl, self.0)
    }

    #[inline]
    fn strip_increment(&self, delta: f64) -> f64 {
        delta
    }
}

/// Query events understood by the generic engine.
#[derive(Debug, Clone)]
pub enum SpecEvent<S> {
    /// Register a new continuous query.
    Install {
        /// Query identifier (must be fresh).
        id: QueryId,
        /// Query geometry.
        spec: S,
        /// Result size `k ≥ 1`.
        k: usize,
    },
    /// Replace the geometry of an installed query (e.g. the query points
    /// moved). Handled as terminate + reinstall, like Section 3.3.
    Update {
        /// Query identifier (must be installed).
        id: QueryId,
        /// New geometry.
        spec: S,
    },
    /// Terminate an installed query.
    Terminate {
        /// Query identifier (must be installed).
        id: QueryId,
    },
}

impl<S> SpecEvent<S> {
    /// The query this event concerns.
    pub fn id(&self) -> QueryId {
        match *self {
            SpecEvent::Install { id, .. }
            | SpecEvent::Update { id, .. }
            | SpecEvent::Terminate { id } => id,
        }
    }
}

/// The paper's k-NN event vocabulary ([`QueryEvent`], what the workload
/// generators emit) lifted to the engine's: a query move is a geometry
/// update.
impl From<QueryEvent> for SpecEvent<PointQuery> {
    fn from(ev: QueryEvent) -> Self {
        match ev {
            QueryEvent::Install { id, pos, k } => SpecEvent::Install {
                id,
                spec: PointQuery(pos),
                k,
            },
            QueryEvent::Move { id, to } => SpecEvent::Update {
                id,
                spec: PointQuery(to),
            },
            QueryEvent::Terminate { id } => SpecEvent::Terminate { id },
        }
    }
}

/// Book-keeping for one engine-managed query: the query-table entry of
/// Figure 3.3a, with the query point generalized to a [`QuerySpec`].
#[derive(Debug, Clone)]
pub struct SpecQueryState<S> {
    /// Query identifier.
    pub id: QueryId,
    /// Query geometry.
    pub spec: S,
    /// Current result, ascending by (aggregate) distance.
    pub best: NeighborList,
    /// Cells processed during search, ascending by key; superset of the
    /// influence region.
    pub visit_list: Vec<(CellCoord, f64)>,
    /// Prefix of `visit_list` registered in the influence table.
    pub influence_len: usize,
    /// Left-over search frontier.
    pub heap: SearchHeap,
    /// Pinwheel around the base block.
    pub pinwheel: Pinwheel,
    /// This query's slot in its core's query table — the handle its
    /// influence registrations carry.
    slot: u32,
    /// Incomers of the cycle being resolved (cleared per cycle; a field
    /// only so its allocation is reused).
    in_list: InList,
    /// Reused output buffer for [`QuerySpec::dist_batch`] bucket scans;
    /// scratch only, never part of the observable query state.
    dist_buf: Vec<f64>,
}

impl<S: QuerySpec> SpecQueryState<S> {
    fn new(id: QueryId, slot: u32, spec: S, k: usize, dim: u32) -> Self {
        Self {
            id,
            slot,
            spec,
            best: NeighborList::new(k),
            visit_list: Vec::new(),
            influence_len: 0,
            heap: SearchHeap::new(),
            pinwheel: Pinwheel::around_cell(CellCoord::new(0, 0), dim),
            in_list: InList::with_cap(k),
            dist_buf: Vec::new(),
        }
    }

    /// The monitored `k`.
    pub fn k(&self) -> usize {
        self.best.k()
    }

    /// Distance of the k-th result entry (`+∞` while unfull).
    pub fn best_dist(&self) -> f64 {
        self.best.best_dist()
    }

    /// Current result, ascending by (aggregate) distance.
    pub fn result(&self) -> &[Neighbor] {
        self.best.neighbors()
    }

    /// Memory units of this query-table entry (Section 4.1 accounting):
    /// `3 + 2k + 3·(C_SH + 4)`.
    pub fn space_units(&self) -> usize {
        let c_sh = self.visit_list.len() + self.heap.cell_entries();
        3 + 2 * self.k() + 3 * (c_sh + 4)
    }
}

/// The query-side half of a CPM engine: query table, influence table, work
/// counters and scratch buffers — everything a processing cycle touches
/// *except* the grid.
///
/// A core's maintenance path ([`EngineCore::apply_records`],
/// [`EngineCore::apply_query_events`]) borrows the grid immutably, so it is
/// `Send` whenever the query geometry is, and cores over disjoint query
/// sets can run concurrently against one shared grid.
#[derive(Debug)]
pub(crate) struct EngineCore<S: QuerySpec> {
    /// Influence lists, holding query-table slots: update handling goes
    /// from a cell to the affected states without hashing a query id.
    influence: InfluenceTable<u32>,
    /// The query table (Figure 3.3a): a slab of states, vacant slots
    /// listed in `free`.
    queries: Vec<Option<SpecQueryState<S>>>,
    free: Vec<u32>,
    /// `QueryId → slot`, for the id-addressed calls (install, update,
    /// terminate, reads).
    slot_of: FastHashMap<QueryId, u32>,
    metrics: Metrics,
    epoch: u64,
    ignored: FastHashSet<QueryId>,
    /// The cycle's `(query, record, departure | arrival)` pairs grouped
    /// by query slot, each packed `record index << 1 | arrival`; slot
    /// `s`'s group ends at `group_ends[s]` and starts where the previous
    /// slot's ends. Both recycled across cycles.
    pairs: Vec<u32>,
    group_ends: Vec<usize>,
    /// The cycle-start result of the query being resolved, copied from
    /// its `best` list just before the cycle first changes it (recycled).
    cycle_start: Vec<Neighbor>,
    /// Scratch for merge resolutions (result ∪ incomers), recycled.
    merge_buf: Vec<Neighbor>,
    /// When set, every cycle's result changes are also captured as
    /// [`NeighborDelta`]s (cleared at cycle start, drained by
    /// [`crate::ShardedCpmEngine::process_cycle_with_deltas`]).
    collect_deltas: bool,
    deltas: Vec<(QueryId, NeighborDelta)>,
    /// Queries whose result changed during a re-grid re-registration
    /// ([`EngineCore::rebind_grid`]) and have not yet been folded into a
    /// cycle's changed list. Empty except across exact-distance ties: the
    /// recomputed result is the canonical `(dist, id)`-minimal set, which
    /// the maintained result already is.
    regrid_changed: Vec<QueryId>,
    /// Pre-regrid result snapshots of those queries (kept only with delta
    /// capture on), so the next cycle's delta can use the list subscribers
    /// actually hold as its base.
    regrid_prelists: Vec<(QueryId, Vec<Neighbor>)>,
}

impl<S: QuerySpec> EngineCore<S> {
    pub(crate) fn new(dim: u32) -> Self {
        Self {
            influence: InfluenceTable::new(dim),
            queries: Vec::new(),
            free: Vec::new(),
            slot_of: FastHashMap::default(),
            metrics: Metrics::default(),
            epoch: 0,
            ignored: FastHashSet::default(),
            pairs: Vec::new(),
            group_ends: Vec::new(),
            cycle_start: Vec::new(),
            merge_buf: Vec::new(),
            collect_deltas: false,
            deltas: Vec::new(),
            regrid_changed: Vec::new(),
            regrid_prelists: Vec::new(),
        }
    }

    /// Turn per-cycle delta capture on or off (off by default — capture
    /// costs one O(result) copy and one O(result) diff per affected query
    /// per cycle).
    pub(crate) fn set_collect_deltas(&mut self, on: bool) {
        self.collect_deltas = on;
    }

    /// Whether per-cycle delta capture is on.
    pub(crate) fn collects_deltas(&self) -> bool {
        self.collect_deltas
    }

    /// The processing-cycle counter (0 before any cycle ran). Every core
    /// of a sharded engine advances it identically, so delta epochs are
    /// shard-count-invariant.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Drain the deltas captured since the last cycle start. The
    /// replacement buffer is pre-sized to the drained count so
    /// steady-state cycles pay one allocation instead of a growth series.
    pub(crate) fn take_deltas(&mut self) -> Vec<(QueryId, NeighborDelta)> {
        let cap = self.deltas.len();
        std::mem::replace(&mut self.deltas, Vec::with_capacity(cap))
    }

    /// Move the captured deltas into `out`, keeping this core's buffer
    /// (the steady-state zero-allocation path).
    pub(crate) fn drain_deltas_into(&mut self, out: &mut Vec<(QueryId, NeighborDelta)>) {
        out.append(&mut self.deltas);
    }

    pub(crate) fn query_count(&self) -> usize {
        self.slot_of.len()
    }

    pub(crate) fn query_state(&self, id: QueryId) -> Option<&SpecQueryState<S>> {
        self.queries[*self.slot_of.get(&id)? as usize].as_ref()
    }

    pub(crate) fn query_ids(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.slot_of.keys().copied()
    }

    pub(crate) fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    pub(crate) fn take_metrics(&mut self) -> Metrics {
        self.metrics.take()
    }

    /// `(query count, Σk)` over the managed queries, with each `k` capped
    /// at 256 — the paper's largest experimental `k` — so the range
    /// monitors' unbounded-result sentinel cannot poison the cost model's
    /// average.
    pub(crate) fn k_stats(&self) -> (usize, usize) {
        let installed = self.queries.iter().flatten();
        (
            self.slot_of.len(),
            installed.map(|st| st.k().min(256)).sum(),
        )
    }

    /// Re-register every managed query against a re-gridded index: drop
    /// all influence registrations (their packed cell ids are meaningless
    /// at the new δ), then recompute each query from scratch **in
    /// ascending query-id order** — the same deterministic order a fresh
    /// engine installs them in, so the post-regrid book-keeping (visit
    /// lists, heaps, influence prefixes, results) is bit-identical to a
    /// from-scratch build at the new resolution.
    ///
    /// Results are invariant in practice (the maintained list and the
    /// recomputed list are both the canonical `(dist, id)`-minimal set);
    /// if an exact-distance tie ever resolves differently at the new δ,
    /// the change is parked in `regrid_changed`/`regrid_prelists` and
    /// folded into the next cycle's changed list and delta stream by
    /// [`EngineCore::finish_regrid`].
    pub(crate) fn rebind_grid(&mut self, grid: &Grid) {
        self.influence.reset(grid.dim());
        let mut qids: Vec<(QueryId, u32)> = self.slot_of.iter().map(|(&q, &s)| (q, s)).collect();
        qids.sort_unstable();
        for (qid, slot) in qids {
            let st = self.queries[slot as usize].as_mut().expect("listed query");
            st.influence_len = 0;
            let prev: Vec<Neighbor> = st.best.neighbors().to_vec();
            Self::compute_from_scratch(grid, &mut self.influence, st, &mut self.metrics);
            self.metrics.regrid_queries_recomputed += 1;
            if prev != st.best.neighbors() && !self.regrid_changed.contains(&qid) {
                // First pre-regrid list wins: it is what subscribers hold.
                self.regrid_changed.push(qid);
                if self.collect_deltas {
                    self.regrid_prelists.push((qid, prev));
                }
            }
        }
    }

    /// Fold any re-grid-induced result changes into the finishing cycle's
    /// outputs. For each parked query the authoritative delta is
    /// `diff(pre-regrid list, current list)` — it *replaces* whatever the
    /// incremental path produced this cycle, whose base (the post-regrid
    /// list) is not what subscribers hold. Runs at the end of every
    /// cycle; a no-op unless a re-grid actually changed a result
    /// (exact-distance ties only).
    pub(crate) fn finish_regrid(&mut self, changed: &mut Vec<QueryId>) {
        if self.regrid_changed.is_empty() {
            return;
        }
        for (qid, pre) in std::mem::take(&mut self.regrid_prelists) {
            // `[]` if the query was terminated by this cycle's events.
            let cur: &[Neighbor] = self.query_state(qid).map_or(&[], |st| st.best.neighbors());
            let delta = NeighborDelta::diff(self.epoch, &pre, cur);
            if let Some(at) = self.deltas.iter().position(|(q, _)| *q == qid) {
                if delta.is_empty() {
                    self.deltas.remove(at);
                } else {
                    self.deltas[at].1 = delta;
                }
            } else if !delta.is_empty() {
                self.deltas.push((qid, delta));
            }
        }
        for qid in std::mem::take(&mut self.regrid_changed) {
            if self.slot_of.contains_key(&qid) && !changed.contains(&qid) {
                changed.push(qid);
            }
        }
    }

    /// Query-table memory units of all managed queries (Section 4.1).
    pub(crate) fn query_space_units(&self) -> usize {
        let installed = self.queries.iter().flatten();
        installed.map(|st| st.space_units()).sum::<usize>() + self.influence.total_entries()
    }

    /// Note which queries have pending query events this cycle; they are
    /// skipped during object-update handling ("to avoid waste of
    /// computations for obsolete queries", Section 3.3).
    pub(crate) fn begin_cycle(&mut self, pending: impl Iterator<Item = QueryId>) {
        self.ignored.clear();
        self.ignored.extend(pending);
        self.deltas.clear();
    }

    pub(crate) fn install(
        &mut self,
        grid: &Grid,
        id: QueryId,
        spec: S,
        k: usize,
    ) -> Result<&[Neighbor], CpmError> {
        if k == 0 {
            return Err(CpmError::InvalidK(id));
        }
        if self.slot_of.contains_key(&id) {
            return Err(CpmError::DuplicateQuery(id));
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.queries.push(None);
            (self.queries.len() - 1) as u32
        });
        let mut st = SpecQueryState::new(id, slot, spec, k, grid.dim());
        Self::compute_from_scratch(grid, &mut self.influence, &mut st, &mut self.metrics);
        self.slot_of.insert(id, slot);
        Ok(self.queries[slot as usize].insert(st).result())
    }

    /// Overwrite the cycle counter during snapshot restore, after the
    /// restored queries have been installed. [`EngineCore::apply_records`]
    /// pre-increments, so a core restored to epoch `e` emits its next
    /// cycle at `e + 1` — exactly the numbering an uninterrupted engine
    /// would use.
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Install a query from a snapshot: identical to
    /// [`EngineCore::install`], except that the snapshot's `captured`
    /// result (what the crashed engine last reported and subscribers
    /// hold) is reconciled against the freshly recomputed one. Both are
    /// the canonical `(dist, id)`-minimal set, so they agree in practice;
    /// if an exact-distance tie ever resolves differently, the change is
    /// parked through the same `regrid_changed`/`regrid_prelists`
    /// machinery a re-grid uses, and surfaces in the next cycle's changed
    /// list and delta stream instead of being silently dropped.
    pub(crate) fn restore_query(
        &mut self,
        grid: &Grid,
        id: QueryId,
        spec: S,
        k: usize,
        captured: &[Neighbor],
    ) -> Result<(), CpmError> {
        self.install(grid, id, spec, k)?;
        let st = self.query_state(id).expect("just installed");
        if st.best.neighbors() != captured {
            self.regrid_changed.push(id);
            if self.collect_deltas {
                self.regrid_prelists.push((id, captured.to_vec()));
            }
        }
        Ok(())
    }

    pub(crate) fn terminate(&mut self, id: QueryId) -> Result<(), CpmError> {
        let slot = self.slot_of.remove(&id).ok_or(CpmError::UnknownQuery(id))?;
        let st = self.queries[slot as usize].take().expect("mapped slot");
        for &(cell, _) in &st.visit_list[..st.influence_len] {
            self.influence.remove(cell, slot);
        }
        self.free.push(slot);
        Ok(())
    }

    pub(crate) fn update_spec(
        &mut self,
        grid: &Grid,
        id: QueryId,
        spec: S,
    ) -> Result<&[Neighbor], CpmError> {
        let slot = *self.slot_of.get(&id).ok_or(CpmError::UnknownQuery(id))?;
        let st = self.queries[slot as usize].as_mut().expect("mapped slot");
        for &(cell, _) in &st.visit_list[..st.influence_len] {
            self.influence.remove(cell, slot);
        }
        st.influence_len = 0;
        st.spec = spec;
        Self::compute_from_scratch(grid, &mut self.influence, st, &mut self.metrics);
        Ok(st.result())
    }

    /// Run the batched update handling (Figure 3.8) for an already-ingested
    /// record batch, query-major — "for each query q affected by updates
    /// in U_P" — in three steps:
    ///
    /// 1. **Route**: walk the records, reading nothing but this core's
    ///    influence lists, once to count the `(query, record, departure |
    ///    arrival)` pairs per query slot and once to scatter them. A
    ///    record that touches no influenced cell costs two directory
    ///    reads per walk.
    /// 2. **Group**: the scatter *is* the grouping — a counting sort over
    ///    the dense slots, stable by construction: each query's events
    ///    stay in batch order, a record's departure before its arrival.
    /// 3. **Resolve**: per query, apply its events and finish it
    ///    ([`EngineCore::resolve`]) while its state is the only one in
    ///    cache.
    ///
    /// A query's outcome depends on its own event sequence, on the
    /// post-ingest grid and on its own influence registrations — none of
    /// which another query's resolution writes — so results, `changed`,
    /// deltas and `Metrics` are those of walking the batch record by
    /// record. Queries resolve in slot order; the callers put `changed`
    /// and the deltas into canonical id order.
    pub(crate) fn apply_records(
        &mut self,
        grid: &Grid,
        records: &[UpdateRecord],
        changed: &mut Vec<QueryId>,
    ) {
        self.epoch += 1;
        assert!(
            records.len() <= (u32::MAX >> 1) as usize,
            "record index must fit the packed pair"
        );

        let mut ends = std::mem::take(&mut self.group_ends);
        ends.clear();
        ends.resize(self.queries.len(), 0);
        self.for_each_pair(records, |slot, _| ends[slot] += 1);
        let mut total = 0;
        for end in &mut ends {
            let count = *end;
            *end = total; // the group's start; the scatter advances it to its end
            total += count;
        }

        let mut pairs = std::mem::take(&mut self.pairs);
        pairs.clear();
        pairs.resize(total, 0);
        self.for_each_pair(records, |slot, pair| {
            pairs[ends[slot]] = pair;
            ends[slot] += 1;
        });

        let mut start = 0;
        for (slot, &end) in ends.iter().enumerate() {
            if end > start {
                self.resolve(grid, records, slot, &pairs[start..end], changed);
            }
            start = end;
        }
        self.pairs = pairs;
        self.group_ends = ends;
    }

    /// Visit every `(query slot, packed pair)` of the batch in batch
    /// order, a record's departure before its arrival.
    fn for_each_pair(&self, records: &[UpdateRecord], mut visit: impl FnMut(usize, u32)) {
        for (i, rec) in records.iter().enumerate() {
            let at = (i as u32) << 1;
            if let Some(old_cell) = rec.old_cell {
                for &slot in self.influence.queries_at(old_cell) {
                    visit(slot as usize, at);
                }
            }
            if let (Some(new_cell), Some(_)) = (rec.new_cell, rec.new_pos) {
                for &slot in self.influence.queries_at(new_cell) {
                    visit(slot as usize, at | 1);
                }
            }
        }
    }

    /// Apply this core's share of the cycle's query events, in batch order.
    pub(crate) fn apply_query_events(
        &mut self,
        grid: &Grid,
        events: &[SpecEvent<S>],
        changed: &mut Vec<QueryId>,
    ) {
        for ev in events {
            match ev {
                SpecEvent::Terminate { id } => {
                    // A batched terminate of an id that is already gone is
                    // benign (the direct-call API reports it as
                    // `CpmError::UnknownQuery`).
                    let _ = self.terminate(*id);
                }
                SpecEvent::Update { id, spec } => {
                    let epoch = self.epoch;
                    if self.collect_deltas {
                        let st = self
                            .query_state(*id)
                            .unwrap_or_else(|| panic!("update of unknown query {id}"));
                        // Query events are rare relative to object
                        // updates; a plain owned snapshot is fine here.
                        let prev: Vec<Neighbor> = st.best.neighbors().to_vec();
                        let delta = {
                            let new = self
                                .update_spec(grid, *id, spec.clone())
                                .unwrap_or_else(|e| panic!("{e}"));
                            NeighborDelta::diff(epoch, &prev, new)
                        };
                        if !delta.is_empty() {
                            self.deltas.push((*id, delta));
                        }
                    } else {
                        self.update_spec(grid, *id, spec.clone())
                            .unwrap_or_else(|e| panic!("{e}"));
                    }
                    changed.push(*id);
                }
                SpecEvent::Install { id, spec, k } => {
                    let epoch = self.epoch;
                    if self.collect_deltas {
                        let delta = {
                            let result = self
                                .install(grid, *id, spec.clone(), *k)
                                .unwrap_or_else(|e| panic!("{e}"));
                            NeighborDelta::diff(epoch, &[], result)
                        };
                        if !delta.is_empty() {
                            self.deltas.push((*id, delta));
                        }
                    } else {
                        self.install(grid, *id, spec.clone(), *k)
                            .unwrap_or_else(|e| panic!("{e}"));
                    }
                    changed.push(*id);
                }
            }
        }
    }

    // ---- search ----

    fn compute_from_scratch(
        grid: &Grid,
        inf: &mut InfluenceTable<u32>,
        st: &mut SpecQueryState<S>,
        metrics: &mut Metrics,
    ) {
        debug_assert_eq!(st.influence_len, 0, "stale influence registrations");
        let counters_before = metrics.query_counters();
        st.best.clear();
        st.visit_list.clear();
        st.heap.clear();

        let (lo, hi) = st.spec.base_block(grid.geom());
        st.pinwheel = Pinwheel::around_block(lo, hi, grid.dim());

        for cell in st.pinwheel.base_cells() {
            if st.spec.admits_cell(grid.geom(), cell) {
                st.heap.push_cell(cell, st.spec.cell_key(grid.geom(), cell));
                metrics.heap_pushes += 1;
            }
        }
        for dir in Direction::ALL {
            if st.pinwheel.strip(dir, 0).is_some() {
                st.heap
                    .push_rect(dir, 0, st.spec.strip_key(&st.pinwheel, dir, 0));
                metrics.heap_pushes += 1;
            }
        }

        Self::drain_heap(grid, st, metrics);
        metrics.computations += 1;
        metrics.attribute_since(st.spec.kind(), counters_before);
        Self::sync_influence(inf, st);
    }

    fn recompute(
        grid: &Grid,
        inf: &mut InfluenceTable<u32>,
        st: &mut SpecQueryState<S>,
        metrics: &mut Metrics,
    ) {
        let counters_before = metrics.query_counters();
        st.best.clear();

        let mut exhausted = true;
        for i in 0..st.visit_list.len() {
            let (cell, key) = st.visit_list[i];
            if key > st.best.best_dist() {
                exhausted = false;
                break;
            }
            metrics.cell_accesses += 1;
            let oids = grid.objects_in(cell);
            st.spec.dist_batch(grid.coords(), oids, &mut st.dist_buf);
            metrics.objects_processed += oids.len() as u64;
            for (&oid, &d) in oids.iter().zip(&st.dist_buf) {
                if d.is_finite() {
                    st.best.offer(oid, d);
                }
            }
        }
        if exhausted {
            Self::drain_heap(grid, st, metrics);
        }
        metrics.recomputations += 1;
        metrics.attribute_since(st.spec.kind(), counters_before);
        Self::sync_influence(inf, st);
    }

    fn drain_heap(grid: &Grid, st: &mut SpecQueryState<S>, metrics: &mut Metrics) {
        let increment = st.spec.strip_increment(grid.delta());
        while let Some(key) = st.heap.peek_key() {
            if key > st.best.best_dist() {
                break;
            }
            let (key, entry) = st.heap.pop().expect("peeked entry");
            metrics.heap_pops += 1;
            match entry {
                HeapEntry::Cell(cell) => {
                    metrics.cell_accesses += 1;
                    let oids = grid.objects_in(cell);
                    st.spec.dist_batch(grid.coords(), oids, &mut st.dist_buf);
                    metrics.objects_processed += oids.len() as u64;
                    for (&oid, &d) in oids.iter().zip(&st.dist_buf) {
                        if d.is_finite() {
                            st.best.offer(oid, d);
                        }
                    }
                    st.visit_list.push((cell, key));
                }
                HeapEntry::Rect(dir, lvl) => {
                    let strip = st.pinwheel.strip(dir, lvl).expect("en-heaped strip exists");
                    for cell in strip.cells() {
                        if st.spec.admits_cell(grid.geom(), cell) {
                            st.heap.push_cell(cell, st.spec.cell_key(grid.geom(), cell));
                            metrics.heap_pushes += 1;
                        }
                    }
                    if st.pinwheel.strip(dir, lvl + 1).is_some() {
                        st.heap.push_rect(dir, lvl + 1, key + increment);
                        metrics.heap_pushes += 1;
                    }
                }
            }
        }
    }

    fn sync_influence(inf: &mut InfluenceTable<u32>, st: &mut SpecQueryState<S>) {
        let bd = st.best.best_dist();
        let new_len = if bd.is_finite() {
            st.visit_list.partition_point(|&(_, key)| key <= bd)
        } else {
            st.visit_list.len()
        };
        for i in st.influence_len..new_len {
            inf.add(st.visit_list[i].0, st.slot);
        }
        for i in new_len..st.influence_len {
            inf.remove(st.visit_list[i].0, st.slot);
        }
        st.influence_len = new_len;
    }

    // ---- update handling (Figure 3.8, aggregate distances) ----

    /// One query's share of a cycle: its departures and arrivals
    /// (`events`, packed as in `EngineCore::pairs`) in batch order, then
    /// merge-or-recompute resolution and change detection. A query with a
    /// pending query event is skipped ("to avoid waste of computations
    /// for obsolete queries", Section 3.3).
    fn resolve(
        &mut self,
        grid: &Grid,
        records: &[UpdateRecord],
        slot: usize,
        events: &[u32],
        changed: &mut Vec<QueryId>,
    ) {
        let st = self.queries[slot].as_mut().expect("influence list in sync");
        let qid = st.id;
        if self.ignored.contains(&qid) {
            return;
        }
        let bd_orig = st.best_dist();
        let mut out_count = 0usize;
        // An incomer left again — with an eviction, `in_list` is unsound.
        let mut in_removed = false;
        // A result entry was mutated in place by a departure.
        let mut dirty = false;
        st.in_list.clear();

        for &ev in events {
            let rec = &records[(ev >> 1) as usize];
            let id = rec.id;
            if ev & 1 == 1 {
                let d = st
                    .spec
                    .dist(rec.new_pos.expect("arrivals carry a position"));
                if d <= bd_orig && d.is_finite() && !st.best.contains(id) {
                    st.in_list.update(id, d);
                }
                continue;
            }
            if st.in_list.remove(id) {
                in_removed = true;
            }
            if st.best.contains(id) {
                // The delta is taken against the cycle-start list: keep a
                // copy from just before the first in-place mutation (it
                // stays hot for the whole of this query's resolution).
                if self.collect_deltas && !dirty {
                    self.cycle_start.clear();
                    self.cycle_start.extend_from_slice(st.best.neighbors());
                }
                // `is_finite` mirrors the arrival guard: with an unfull
                // result `bd_orig` is +∞, and a member moving somewhere it
                // can never qualify (outside a constraint/range region,
                // dist = +∞) must be outgoing, not kept at rank ∞.
                let still_in = rec
                    .new_pos
                    .map(|p| st.spec.dist(p))
                    .filter(|d| d.is_finite() && *d <= bd_orig);
                match still_in {
                    Some(d) => st.best.update_dist(id, d),
                    None => {
                        out_count += 1;
                        st.best.remove(id).expect("member just checked");
                    }
                }
                dirty = true;
            }
        }

        let unsound_in_list = st.in_list.evicted_since_clear() && in_removed;
        let recompute = unsound_in_list || st.in_list.len() < out_count;
        let resolved = recompute || out_count > 0 || st.in_list.len() > 0;
        if !(resolved || dirty) {
            return;
        }
        if !dirty {
            // Nothing was mutated in place: the list about to be resolved
            // still is the cycle-start list.
            self.cycle_start.clear();
            self.cycle_start.extend_from_slice(st.best.neighbors());
        }
        if recompute {
            Self::recompute(grid, &mut self.influence, st, &mut self.metrics);
        } else {
            if resolved {
                self.merge_buf.clear();
                self.merge_buf.extend_from_slice(st.best.neighbors());
                self.merge_buf.extend_from_slice(st.in_list.entries());
                st.best.rebuild_from(&mut self.merge_buf);
                self.metrics.merge_resolutions += 1;
                self.metrics.by_kind[st.spec.kind() as usize].merge_resolutions += 1;
            }
            Self::sync_influence(&mut self.influence, st);
        }

        // Change detection. A `dirty` query changed whatever the lists
        // say: a result that shrank and refilled, or an entry that moved
        // and came back to the same distance bits, still counts. Otherwise
        // an empty delta means bitwise-equal lists (distances are never
        // NaN or -0.0, so bit equality and `==` agree), which keeps
        // `changed` identical with capture on or off.
        if self.collect_deltas {
            let delta = NeighborDelta::diff(self.epoch, &self.cycle_start, st.best.neighbors());
            if dirty || !delta.is_empty() {
                changed.push(qid);
            }
            if !delta.is_empty() {
                self.deltas.push((qid, delta));
            }
        } else if dirty || self.cycle_start != st.best.neighbors() {
            changed.push(qid);
        }
    }

    /// Verify all cross-structure invariants against `grid` (test helper).
    pub(crate) fn check_invariants(&self, grid: &Grid) {
        for (qid, &slot) in &self.slot_of {
            let st = self.queries[slot as usize].as_ref().expect("mapped slot");
            assert_eq!((*qid, slot), (st.id, st.slot));
            st.best.check_invariants();
            for w in st.visit_list.windows(2) {
                assert!(w[0].1 <= w[1].1, "visit list out of order");
            }
            let bd = st.best_dist();
            for (i, &(cell, key)) in st.visit_list.iter().enumerate() {
                let registered = self.influence.contains(cell, slot);
                assert_eq!(registered, i < st.influence_len, "registration mismatch");
                if bd.is_finite() {
                    assert_eq!(key <= bd, i < st.influence_len, "prefix mismatch");
                }
            }
            for n in st.result() {
                let p = grid
                    .position(n.id)
                    .unwrap_or_else(|| panic!("result contains off-line object {}", n.id));
                assert!(
                    (st.spec.dist(p) - n.dist).abs() < 1e-9,
                    "stale distance for {}",
                    n.id
                );
            }
            assert!(st.heap.boundary_boxes() <= 4);
        }
        let installed = self.queries.iter().flatten();
        let total: usize = installed.map(|st| st.influence_len).sum();
        assert_eq!(self.influence.total_entries(), total);
        assert!(self
            .free
            .iter()
            .all(|&s| self.queries[s as usize].is_none()));
        assert_eq!(self.slot_of.len() + self.free.len(), self.queries.len());
    }
}

#[cfg(test)]
mod tests {
    //! The worked examples of Section 3 (Figures 3.2, 3.5, 3.7), driven
    //! through the `S = 1` engine over plain point queries.

    use super::*;
    use crate::ShardedCpmEngine;
    use cpm_grid::ObjectEvent;

    type Engine = ShardedCpmEngine<PointQuery>;
    const Q: QueryId = QueryId(0);
    /// δ of the 8×8 grid the figures are drawn on.
    const D: f64 = 1.0 / 8.0;

    fn pt(x: f64, y: f64) -> Point {
        Point::new(x * D, y * D)
    }

    fn mv(id: u32, x: f64, y: f64) -> ObjectEvent {
        ObjectEvent::Move {
            id: ObjectId(id),
            to: pt(x, y),
        }
    }

    fn move_query(x: f64, y: f64) -> SpecEvent<PointQuery> {
        SpecEvent::Update {
            id: Q,
            spec: PointQuery(pt(x, y)),
        }
    }

    /// The Figure 3.2 layout (coordinates in units of δ): q = (4.2, 4.9)
    /// in cell c4,4; p1 ∈ c3,3; p2 ∈ c2,4 is the NN.
    fn fig_3_2() -> Engine {
        let mut m = Engine::new(8, 1);
        m.populate([
            (ObjectId(1), pt(3.3, 3.5)), // p1
            (ObjectId(2), pt(2.9, 4.5)), // p2 (the NN)
            (ObjectId(3), pt(2.2, 6.5)), // p3, farther
            (ObjectId(4), pt(5.5, 6.6)), // p4, farther
        ]);
        m.install(Q, PointQuery(pt(4.2, 4.9)), 1).unwrap();
        m.take_metrics();
        m
    }

    fn nn(m: &Engine) -> ObjectId {
        m.result(Q).unwrap()[0].id
    }

    fn assert_matches_oracle(m: &Engine) {
        let st = m.query_state(Q).unwrap();
        let mut expect: Vec<f64> = m
            .grid()
            .iter_objects()
            .map(|(_, p)| st.spec.0.dist(p))
            .collect();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        expect.truncate(st.k());
        let got: Vec<f64> = st.result().iter().map(|n| n.dist).collect();
        assert_eq!(got.len(), expect.len(), "result size");
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-9, "{got:?} vs {expect:?}");
        }
        m.check_invariants();
    }

    #[test]
    fn nn_computation_example_fig_3_2() {
        let m = fig_3_2();
        assert_eq!(nn(&m), ObjectId(2));
        assert_matches_oracle(&m);
        let st = m.query_state(Q).unwrap();
        // The search processed only a neighborhood, not the whole grid.
        assert!(st.visit_list.len() < 30, "visited {}", st.visit_list.len());
        assert!(st.heap.boundary_boxes() <= 4);
    }

    #[test]
    fn update_outside_best_dist_changes_nothing_fig_3_5a() {
        let mut m = fig_3_2();
        // p4 moves from c5,6 into the influence region's vicinity (c5,3)
        // but farther than best_dist: no result change, no recomputation.
        assert!(m.process_cycle(&[mv(4, 5.5, 3.4)], &[]).is_empty());
        assert_eq!(m.metrics().recomputations, 0);
        assert_eq!(nn(&m), ObjectId(2));
        m.check_invariants();
    }

    #[test]
    fn outgoing_nn_triggers_recomputation_fig_3_5b() {
        let mut m = fig_3_2();
        // First p4 comes nearer (as in Figure 3.5a): outside best_dist but
        // closer to q than p1, so it becomes the NN once p2 departs.
        m.process_cycle(&[mv(4, 4.6, 3.5)], &[]);
        m.take_metrics();
        // Then the current NN p2 moves far away: q is affected and the
        // re-computation module must find p4 as the new NN.
        assert_eq!(m.process_cycle(&[mv(2, 0.5, 6.5)], &[]), vec![Q]);
        assert_eq!(m.metrics().recomputations, 1);
        assert_eq!(nn(&m), ObjectId(4));
        assert_matches_oracle(&m);
    }

    #[test]
    fn incomer_covers_outgoer_without_recomputation_fig_3_7() {
        let mut m = fig_3_2();
        // p2 (the NN) leaves; p3 moves closer than best_dist in the same
        // batch. CPM must resolve this by merging, without grid search.
        let changed = m.process_cycle(&[mv(2, 0.5, 6.5), mv(3, 3.6, 4.5)], &[]);
        assert_eq!(changed, vec![Q]);
        assert_eq!(m.metrics().recomputations, 0);
        assert_eq!(m.metrics().merge_resolutions, 1);
        assert_eq!(nn(&m), ObjectId(3));
        assert_matches_oracle(&m);
    }

    #[test]
    fn offline_nn_is_treated_as_outgoing() {
        let mut m = fig_3_2();
        let changed = m.process_cycle(&[ObjectEvent::Disappear { id: ObjectId(2) }], &[]);
        assert_eq!(changed, vec![Q]);
        assert_eq!(nn(&m), ObjectId(1));
        assert_matches_oracle(&m);
    }

    #[test]
    fn appearing_object_can_become_nn() {
        let mut m = fig_3_2();
        let appear = ObjectEvent::Appear {
            id: ObjectId(9),
            pos: pt(4.3, 4.8),
        };
        assert_eq!(m.process_cycle(&[appear], &[]), vec![Q]);
        assert_eq!(nn(&m), ObjectId(9));
        assert_matches_oracle(&m);
    }

    #[test]
    fn query_move_recomputes_from_scratch() {
        let mut m = fig_3_2();
        assert_eq!(m.process_cycle(&[], &[move_query(5.4, 6.4)]), vec![Q]);
        assert_eq!(m.metrics().computations, 1);
        assert_eq!(nn(&m), ObjectId(4));
        assert_matches_oracle(&m);
    }

    #[test]
    fn moving_query_is_ignored_during_object_updates() {
        let mut m = fig_3_2();
        // The NN departs *and* the query moves in the same cycle; the
        // object update must not trigger work for the obsolete query.
        let changed = m.process_cycle(&[mv(2, 0.5, 6.5)], &[move_query(5.4, 6.4)]);
        assert_eq!(changed, vec![Q]);
        assert_eq!(m.metrics().recomputations, 0, "obsolete query recomputed");
        assert_eq!(m.metrics().computations, 1);
        assert_matches_oracle(&m);
    }

    #[test]
    fn k_larger_than_population_and_empty_grid() {
        let mut m = Engine::new(16, 1);
        assert!(m
            .install(Q, PointQuery(Point::new(0.5, 0.5)), 3)
            .unwrap()
            .is_empty());
        m.check_invariants();
        // Objects appear one by one and must join the (unfull) result.
        for (i, x) in [0.1, 0.9, 0.51].into_iter().enumerate() {
            let appear = ObjectEvent::Appear {
                id: ObjectId(i as u32),
                pos: Point::new(x, x),
            };
            assert_eq!(m.process_cycle(&[appear], &[]), vec![Q]);
            assert_eq!(m.result(Q).unwrap().len(), i + 1);
            assert_eq!(m.query_state(Q).unwrap().best_dist().is_infinite(), i < 2);
            assert_matches_oracle(&m);
        }
        assert_eq!(nn(&m), ObjectId(2));
    }
}
