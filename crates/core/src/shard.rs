//! [`CpmEngine`]: the CPM engine behind [`crate::CpmServer`] — a grid
//! plus one query core whose per-cycle maintenance runs on `T ≥ 1`
//! hardware threads.
//!
//! The per-cycle work of Section 4.1 is embarrassingly partitionable: a
//! query's re-evaluation touches only its influence region and its own
//! book-keeping, and the batched in/out update handling of Figure 3.8 is
//! independent across queries. A processing cycle therefore runs in
//! phases, serial where the work is shared and parallel where it is per
//! query:
//!
//! 1. **Grid ingest** (serial). The object-update batch is applied to
//!    the grid once, producing read-only [`UpdateRecord`]s
//!    ([`cpm_grid::apply_events`]). This is the only step that mutates
//!    the grid: a position write per update, then one counting sort of
//!    the cell index.
//! 2. **Bucket** (serial). The records are sorted by cell once, a
//!    departure at a record's old cell and an arrival at its new one
//!    ([`CellMoves`]): one counting sort over the batch.
//! 3. **Resolve** (`T` workers). Consecutive slot ranges of equal length
//!    each go to one worker. Each query reads the moves of its own
//!    influence cells — the prefix of its visit list — and resolves them
//!    against the immutable grid; a query whose cells saw no move is
//!    skipped.
//! 4. **Query events**: terminates and the slot allocation of installs
//!    run serially, in event order; the from-scratch searches of installs
//!    and updates then run on the `T` workers. A batch names each query
//!    at most once, so no search waits on another.
//!
//! Step 4 also runs alone between cycles ([`CpmEngine::change_queries`]):
//! it is how the server's direct calls and snapshot restore change
//! queries. A re-grid's re-registration of every query is parallel the
//! same way.
//! Workers are the calling thread plus `T − 1` `std::thread::scope`
//! threads, spawned only when a step holds enough work to pay for them.
//! Each worker owns its part of the query table and its own counters,
//! changed ids and deltas; the join sums and concatenates them in worker
//! order, which is slot order for resolve, event order for query events
//! and id order for a re-grid — the order `T = 1` produces. A worker
//! writes no shared structure: a query's influence registrations are the
//! prefix of its own visit list (`SpecQueryState::influence_len`), which
//! the next cycle's resolve reads from the query side. Because each
//! query's processing depends only on its own state, its own moves and
//! the post-ingest grid, results, changed lists, delta batches and
//! [`Metrics`] are **bit-identical** at every thread count: `T = 1` is
//! the same split with one part. The threads suite
//! (`tests/thread_determinism.rs`) and `cpm_sim`'s oracle cross-check
//! assert it on random workloads.
//!
//! The engine trusts its caller: every batch it sees has passed the
//! server's validation (one event per object and per query, live objects
//! move and disappear, off-line ones appear, known queries update and
//! terminate), and it keeps no code for any other batch.

use std::num::NonZeroUsize;

use cpm_geom::{FastHashMap, QueryId};
use cpm_grid::{
    apply_events, CellCoord, CellRuns, Grid, GridGeom, Metrics, ObjectEvent, UpdateRecord,
};

use crate::any::AnyQuerySpec;
use crate::delta::{CycleDeltas, NeighborDelta};
use crate::engine::{
    influence_prefix, QuerySpec, Resolve, Search, SpecEvent, SpecQueryState, Worker,
};
use crate::error::CpmError;
use crate::neighbors::Neighbor;
use crate::regrid::{RegridController, RegridPolicy};
use crate::server::install_k;

/// Spawning and joining one `std::thread::scope` worker costs ~35 µs on
/// the two-thread x86-64 host the benchmark was developed on (5,000
/// rounds of one spawn each, five repetitions: 34–40 µs). Resolving one
/// installed query — reading the moves of its influence cells, then
/// Figure 3.8 over them — costs ~2 µs of one thread there
/// (`paper_default`: ~5.4 ms of resolve on two threads for 5,000
/// queries a cycle; `hotspot_drift` ~3 µs, `delta_churn`'s k = 64 ~10
/// µs), so a split only pays once every worker gets a few dozen
/// queries: this grain is ~3.5× the spawn cost, and a step with less
/// work than two grains runs inline, spawning nothing.
const GRAIN_QUERIES: usize = 64;

/// A from-scratch search — a query event or a re-grid re-registration —
/// in resolved queries: ~5.5 µs per search on the same host.
const SEARCH_QUERIES: usize = 3;

/// Run `job(worker, first, part)` over consecutive parts of `items`, the
/// part ending at `cuts[i]` with `workers[i]` (`first` is the part's
/// offset in `items`): the first part on the calling thread, every other
/// one on a scoped thread of its own. With one part nothing is spawned.
fn fan_out<T: Send>(
    workers: &mut [Worker],
    items: &mut [T],
    cuts: &[usize],
    job: &(impl Fn(&mut Worker, usize, &mut [T]) + Sync),
) {
    let (caller, spawned) = workers.split_first_mut().expect("one worker at least");
    let (first, mut rest) = items.split_at_mut(cuts[0]);
    if cuts.len() == 1 {
        return job(caller, 0, first);
    }
    std::thread::scope(|scope| {
        let mut start = cuts[0];
        for (worker, &end) in spawned.iter_mut().zip(&cuts[1..]) {
            let (part, tail) = std::mem::take(&mut rest).split_at_mut(end - start);
            rest = tail;
            scope.spawn(move || job(worker, start, part));
            start = end;
        }
        job(caller, 0, first);
    });
}

/// The cycle's moves bucketed by cell by one [`CellRuns::sort`]: record
/// `r`'s departure at its `old_cell` is item `2r` and its arrival at its
/// `new_cell` item `2r + 1` (an appear has only the arrival, a disappear
/// only the departure). An entry is its item, so it reads packed
/// `record index << 1 | arrival`, and each cell's run is in record
/// order, a departure before its arrival.
#[derive(Debug, Default)]
struct CellMoves {
    runs: CellRuns,
    entries: Vec<u32>,
}

impl CellMoves {
    /// Replace the runs with `records`' on a `dim × dim` grid,
    /// O(records + cells).
    fn sort(&mut self, dim: u32, records: &[UpdateRecord]) {
        assert!(
            records.len() <= (u32::MAX >> 1) as usize,
            "record index must fit the packed entry"
        );
        let key = |c: Option<CellCoord>| c.map_or(CellRuns::NO_CELL, |c| c.id(dim) as u32);
        let keys = (records.iter()).flat_map(|rec| [key(rec.old_cell), key(rec.new_cell)]);
        let entries = &mut self.entries;
        entries.clear();
        entries.resize(2 * records.len(), 0);
        self.runs
            .sort(dim, keys, |item, slot| entries[slot] = item as u32);
        entries.truncate(self.runs.len());
    }

    /// Append the runs of `cells` (a query's influence prefix) to `out`.
    fn gather(&self, cells: &[(CellCoord, f64)], out: &mut Vec<u32>) {
        for &(cell, _) in cells {
            out.extend_from_slice(&self.entries[self.runs.run(cell)]);
        }
    }
}

/// The conceptual-partitioning monitor: a grid plus the query
/// book-keeping of Section 3, whose per-cycle maintenance runs on `T`
/// threads (see the [module docs](self) for the phase structure).
///
/// Every query's geometry is an [`AnyQuerySpec`], which dispatches to the
/// kind's own [`crate::QuerySpec`]. Every call comes from
/// [`crate::CpmServer`] or snapshot restore after their checks, so a
/// call the server would refuse is a bug here and panics.
///
/// [`CpmEngine::process_cycle`] reports changed queries in canonical
/// (ascending id) order.
#[derive(Debug)]
pub(crate) struct CpmEngine {
    grid: Grid,
    /// The query table (Figure 3.3a): a slab of states, vacant slots
    /// listed in `free`. A state is boxed so that a search step moves a
    /// pointer, not the state, out of the table and back.
    queries: Vec<Option<Box<SpecQueryState>>>,
    free: Vec<u32>,
    /// `QueryId → slot`, for the id-addressed calls (install, update,
    /// terminate, reads).
    slot_of: FastHashMap<QueryId, u32>,
    metrics: Metrics,
    epoch: u64,
    /// Per slot, the last cycle in which its query had a query event
    /// pending; such a query is skipped during update handling ("to avoid
    /// waste of computations for obsolete queries", Section 3.3).
    pending: Vec<u64>,
    records: Vec<UpdateRecord>,
    /// The cycle's records bucketed by cell, recycled across cycles.
    moves: CellMoves,
    /// When set, every cycle's result changes are also captured as
    /// [`NeighborDelta`]s.
    collect_deltas: bool,
    /// One per thread. The first runs on the calling thread and, during
    /// a cycle, holds the caller's output buffers, which the others'
    /// outputs are appended to.
    workers: Vec<Worker>,
    /// Scratch: where the parts of the current parallel step end.
    cuts: Vec<usize>,
    /// Scratch: the states a search step works on, moved out of the
    /// table in the order the step's outputs are concatenated in.
    searches: Vec<(Search, Box<SpecQueryState>)>,
    /// Re-grid policy state. Every decision input is a function of the
    /// stream and the engine state, so the controller decides identically
    /// at every thread count.
    regrid: RegridController,
}

impl CpmEngine {
    /// Create an engine over a pre-built (typically empty) grid whose
    /// maintenance runs on `threads` threads.
    pub(crate) fn with_grid(grid: Grid, threads: NonZeroUsize) -> Self {
        Self {
            grid,
            queries: Vec::new(),
            free: Vec::new(),
            slot_of: FastHashMap::default(),
            metrics: Metrics::default(),
            epoch: 0,
            pending: Vec::new(),
            records: Vec::new(),
            moves: CellMoves::default(),
            collect_deltas: false,
            workers: (0..threads.get()).map(|_| Worker::default()).collect(),
            cuts: Vec::new(),
            searches: Vec::new(),
            regrid: RegridController::new(RegridPolicy::Manual),
        }
    }

    /// Replace the re-grid policy (default: [`RegridPolicy::Manual`]).
    /// With [`RegridPolicy::Auto`], the cost model is evaluated at cycle
    /// boundaries against the observed workload; an applied re-grid
    /// migrates the grid and re-registers every query before the cycle's
    /// ingest runs.
    pub(crate) fn set_regrid_policy(&mut self, policy: RegridPolicy) {
        self.regrid.set_policy(policy);
    }

    /// The active re-grid policy.
    #[must_use]
    pub(crate) fn regrid_policy(&self) -> &RegridPolicy {
        self.regrid.policy()
    }

    /// Re-grid to a new resolution *now*: rebuild the cell index from the
    /// (untouched) object store, then re-register every query against the
    /// new δ — searched on the worker threads, in ascending query-id order
    /// (the order a fresh engine installs them in), so the
    /// resulting state is bit-identical to an engine built at `new_dim`
    /// from scratch, at every thread count. Returns the number of objects
    /// migrated (0 if `new_dim` is the current dimension).
    ///
    /// Results are invariant: every path keeps a query's result the `k`
    /// smallest objects under `(dist, id)`, a function of the object
    /// positions alone, so the re-registration recomputes exactly the
    /// lists the queries held. A re-grid changes no result and surfaces
    /// in no changed list or delta.
    ///
    /// # Errors
    /// [`CpmError::InvalidDim`] if `new_dim` is out of `1..=4096`.
    pub(crate) fn regrid_to(&mut self, new_dim: u32) -> Result<usize, CpmError> {
        if new_dim == self.grid.dim() {
            return Ok(0);
        }
        GridGeom::check_dim(new_dim)?;
        let migrated = self.grid.regrid(new_dim);
        self.metrics.regrids += 1;
        self.metrics.regrid_objects_migrated += migrated as u64;
        self.searches.clear();
        for st in self.queries.iter_mut().filter_map(Option::take) {
            self.searches.push((Search::Rebind, st));
        }
        self.searches.sort_unstable_by_key(|(_, st)| st.id);
        self.search_all(&[]);
        Ok(migrated)
    }

    /// Evaluate the automatic policy at the cycle boundary (phase 0 of a
    /// processing cycle). Free under the default [`RegridPolicy::Manual`]
    /// — the observation and the O(queries) `k` sweep only run when a
    /// policy could act on them.
    fn maybe_auto_regrid(&mut self, object_events: usize, query_events: usize) {
        if !self.regrid.policy().is_auto() {
            return;
        }
        let n_objects = self.grid.len();
        let n_queries = self.query_count();
        // Each `k` capped at 256 — the paper's largest experimental `k` —
        // so the range monitors' unbounded-result sentinel cannot poison
        // the cost model's average.
        let sum_k: usize = self
            .queries
            .iter()
            .flatten()
            .map(|st| st.k().min(256))
            .sum();
        self.regrid
            .observe_cycle(object_events, query_events, n_objects, n_queries);
        self.regrid.observe_occupancy(self.grid.stats());
        let avg_k = sum_k / n_queries.max(1);
        if let Some(dim) =
            self.regrid
                .decide(self.epoch, n_objects, n_queries, avg_k, self.grid.dim())
        {
            self.regrid_to(dim)
                .expect("the policy proposes dimensions in range");
        }
    }

    /// Number of threads per-cycle maintenance runs on.
    #[must_use]
    pub(crate) fn threads(&self) -> usize {
        self.workers.len()
    }

    /// The shared object index.
    #[must_use]
    pub(crate) fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Bulk-load objects before any query is installed: one batch of
    /// valid appears of off-line objects.
    pub(crate) fn populate(&mut self, appears: &[ObjectEvent]) {
        // A buffer of its own: the per-cycle one keeps no bulk-load size.
        apply_events(&mut self.grid, appears, &mut Vec::new());
    }

    /// Number of installed queries.
    #[must_use]
    pub(crate) fn query_count(&self) -> usize {
        self.slot_of.len()
    }

    /// The current result of query `id`.
    #[must_use]
    pub(crate) fn result(&self, id: QueryId) -> Option<&[Neighbor]> {
        self.query_state(id).map(|st| st.result())
    }

    /// Full book-keeping state of query `id`.
    #[must_use]
    pub(crate) fn query_state(&self, id: QueryId) -> Option<&SpecQueryState> {
        self.queries[*self.slot_of.get(&id)? as usize].as_deref()
    }

    /// Ids of every installed query, ascending — the deterministic
    /// iteration order snapshots and hub restores rely on.
    #[must_use]
    pub(crate) fn query_ids(&self) -> Vec<QueryId> {
        let mut ids: Vec<QueryId> = self.slot_of.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// `true` once [`CpmEngine::enable_deltas`] was called.
    #[must_use]
    pub(crate) fn collects_deltas(&self) -> bool {
        self.collect_deltas
    }

    /// Overwrite the cycle counter and the work counters during snapshot
    /// restore, after the restored queries have been installed: cycles
    /// pre-increment, so an engine restored to epoch `e` emits its next
    /// cycle at `e + 1`, and the snapshot's counters replace the
    /// from-scratch work the re-installs counted.
    pub(crate) fn restore_counters(&mut self, epoch: u64, metrics: Metrics) {
        self.epoch = epoch;
        self.metrics = metrics;
    }

    /// The re-grid controller, for snapshot capture/restore of its
    /// decision state.
    pub(crate) fn regrid_controller(&self) -> &RegridController {
        &self.regrid
    }

    /// Mutable access to the re-grid controller (snapshot restore).
    pub(crate) fn regrid_controller_mut(&mut self) -> &mut RegridController {
        &mut self.regrid
    }

    /// A fresh state for query `id` (not installed, `k ≥ 1` unless a
    /// range, whose `k` becomes [`install_k`]'s) on a vacant slot, the
    /// slot already mapped; the caller searches it and puts it in the
    /// table.
    fn vacant_state(&mut self, id: QueryId, spec: AnyQuerySpec, k: usize) -> Box<SpecQueryState> {
        let k = install_k(&spec, k);
        debug_assert!(k > 0 && !self.slot_of.contains_key(&id), "install of {id}");
        let slot = self.free.pop().unwrap_or_else(|| {
            self.queries.push(None);
            self.pending.push(0);
            (self.queries.len() - 1) as u32
        });
        self.slot_of.insert(id, slot);
        let dim = self.grid.dim();
        Box::new(SpecQueryState::new(id, slot, spec, k, dim))
    }

    /// The table slot of installed query `id`.
    fn slot(&self, id: QueryId) -> u32 {
        *self
            .slot_of
            .get(&id)
            .unwrap_or_else(|| panic!("query {id} is not installed"))
    }

    /// Terminate installed query `id`.
    fn terminate(&mut self, id: QueryId) {
        let slot = self
            .slot_of
            .remove(&id)
            .unwrap_or_else(|| panic!("query {id} is not installed"));
        self.queries[slot as usize] = None;
        self.free.push(slot);
    }

    /// Apply a checked query-event batch between cycles: the cycle's
    /// query-event step alone, with no ingest, no resolve and no epoch
    /// advance. A change between cycles rides no changed list or delta,
    /// so what the searches reported is dropped; the caller reads the
    /// results.
    pub(crate) fn change_queries(&mut self, events: &[SpecEvent<AnyQuerySpec>]) {
        self.apply_query_events(events);
        let caller = &mut self.workers[0];
        caller.changed.clear();
        caller.deltas.clear();
    }

    /// Snapshot of the work counters accumulated since the last
    /// [`CpmEngine::take_metrics`].
    #[must_use]
    pub(crate) fn metrics(&self) -> Metrics {
        self.metrics
    }

    /// Take and reset the work counters.
    pub(crate) fn take_metrics(&mut self) -> Metrics {
        self.metrics.take()
    }

    /// Run one processing cycle (see the [module docs](self) for its
    /// phases). Returns ids of queries whose result changed, ascending by
    /// id.
    pub(crate) fn process_cycle(
        &mut self,
        object_events: &[ObjectEvent],
        query_events: &[SpecEvent<AnyQuerySpec>],
    ) -> Vec<QueryId> {
        assert!(
            !self.collect_deltas,
            "this engine collects deltas: use process_cycle_with_deltas_into, or the delta \
             stream silently loses this cycle's changes"
        );
        // Without delta capture nothing is appended to this throwaway
        // vector, so it never allocates.
        let mut discard = Vec::new();
        let mut changed = Vec::new();
        self.run_cycle(object_events, query_events, &mut changed, &mut discard);
        changed
    }

    /// Turn per-cycle delta capture on (see
    /// [`CpmEngine::process_cycle_with_deltas_into`]). Capture costs one
    /// O(result) copy and one O(result) diff per affected query per cycle.
    pub(crate) fn enable_deltas(&mut self) {
        self.collect_deltas = true;
    }

    /// The processing-cycle counter: 0 before any cycle, incremented by
    /// every `process_cycle` call.
    #[must_use]
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Run one processing cycle and write the per-query result deltas
    /// alongside the changed-query list into a caller-owned batch, both
    /// ascending by query id and **bit-identical** at every thread count
    /// (asserted by the delta-replay and threads suites). `out`'s two
    /// vectors are cleared and reused, so a steady-state caller that
    /// recycles the same [`CycleDeltas`] (the subscription front end, the
    /// benchmark) does not re-grow them. The deltas themselves are not
    /// recycled: a component of more than four entries owns a heap
    /// buffer, freed here and allocated by capture.
    ///
    /// # Panics
    /// Panics if delta capture was not enabled with
    /// [`CpmEngine::enable_deltas`].
    pub(crate) fn process_cycle_with_deltas_into(
        &mut self,
        object_events: &[ObjectEvent],
        query_events: &[SpecEvent<AnyQuerySpec>],
        out: &mut CycleDeltas,
    ) {
        assert!(
            self.collect_deltas,
            "enable_deltas() must be called before processing cycles with deltas"
        );
        out.deltas.clear();
        out.changed.clear();
        self.run_cycle(
            object_events,
            query_events,
            &mut out.changed,
            &mut out.deltas,
        );
        out.canonicalize(self.epoch);
    }

    /// The shared cycle body behind [`CpmEngine::process_cycle`]
    /// and [`CpmEngine::process_cycle_with_deltas_into`]: changed ids
    /// and deltas land in the caller's buffers (both empty on entry), in
    /// slot order and then event order; `changed` is left sorted.
    fn run_cycle(
        &mut self,
        object_events: &[ObjectEvent],
        query_events: &[SpecEvent<AnyQuerySpec>],
        changed: &mut Vec<QueryId>,
        deltas: &mut Vec<(QueryId, NeighborDelta)>,
    ) {
        debug_assert!(
            (self.workers.iter()).all(|w| w.changed.is_empty() && w.deltas.is_empty()),
            "worker outputs left over from between cycles"
        );
        // Phase 0: adaptive re-grid at the cycle boundary.
        self.maybe_auto_regrid(object_events.len(), query_events.len());

        // Phase 1: grid ingest (the only grid mutation).
        self.records.clear();
        self.metrics.updates_applied +=
            apply_events(&mut self.grid, object_events, &mut self.records);

        self.epoch += 1;
        for ev in query_events {
            if let Some(&slot) = self.slot_of.get(&ev.id()) {
                self.pending[slot as usize] = self.epoch;
            }
        }
        // The calling thread's worker writes straight into the caller's
        // buffers, so only the spawned workers' outputs are copied.
        std::mem::swap(changed, &mut self.workers[0].changed);
        std::mem::swap(deltas, &mut self.workers[0].deltas);
        // Phases 2–4: bucket, resolve, query events.
        self.resolve_all();
        self.apply_query_events(query_events);
        std::mem::swap(changed, &mut self.workers[0].changed);
        std::mem::swap(deltas, &mut self.workers[0].deltas);

        // Canonical order. A query with a pending query event is skipped
        // during update handling, so the list is duplicate-free.
        changed.sort_unstable();
    }

    /// Bucket + resolve, Figure 3.8's batched update handling ("for each
    /// query q affected by updates in U_P") run from the query side: the
    /// records are sorted by cell once, then the workers take slot ranges
    /// of equal length, and each installed query without a pending query
    /// event resolves the moves of its own influence cells. A query's
    /// outcome depends on its own moves and state and on the post-ingest
    /// grid, none of which another query's resolution writes, so nothing
    /// depends on the split.
    fn resolve_all(&mut self) {
        if self.records.is_empty() || self.slot_of.is_empty() {
            return;
        }
        self.moves.sort(self.grid.dim(), &self.records);
        let parts = (self.slot_of.len() / GRAIN_QUERIES).clamp(1, self.workers.len());
        let n = self.queries.len();
        self.cuts.clear();
        self.cuts.extend((1..=parts).map(|w| n * w / parts));
        let step = Resolve {
            grid: &self.grid,
            records: &self.records,
            epoch: self.epoch,
            collect_deltas: self.collect_deltas,
        };
        let (table, pending, epoch) = (&self.moves, &self.pending, self.epoch);
        fan_out(
            &mut self.workers,
            &mut self.queries,
            &self.cuts,
            &|worker, first, states| {
                let mut moves = std::mem::take(&mut worker.moves);
                for (slot, st) in (first..).zip(states) {
                    let Some(st) = st.as_mut().filter(|_| pending[slot] != epoch) else {
                        continue;
                    };
                    moves.clear();
                    table.gather(&st.visit_list[..st.influence_len], &mut moves);
                    if !moves.is_empty() {
                        #[cfg(test)]
                        worker.handed.push((st.id, moves.clone()));
                        worker.resolve(&step, st, &moves);
                    }
                }
                worker.moves = moves;
            },
        );
        self.join();
    }

    /// The cycle's query events, in event order. Terminates, the slot
    /// allocation of installs and the hand-over of every searched state
    /// run serially; the searches themselves run on the workers.
    fn apply_query_events(&mut self, events: &[SpecEvent<AnyQuerySpec>]) {
        self.searches.clear();
        for (i, ev) in events.iter().enumerate() {
            let st = match ev {
                SpecEvent::Terminate { id } => {
                    self.terminate(*id);
                    continue;
                }
                SpecEvent::Update { id, .. } => {
                    let slot = self.slot(*id) as usize;
                    self.queries[slot].take().expect("mapped slot")
                }
                SpecEvent::Install { id, spec, k } => self.vacant_state(*id, spec.clone(), *k),
            };
            self.searches.push((Search::Event(i), st));
        }
        self.search_all(events);
    }

    /// Search every state of `searches` from scratch on the workers — in
    /// runs of equal length, one per worker — put them back in the table
    /// and join. Their outputs concatenate in `searches` order.
    fn search_all(&mut self, events: &[SpecEvent<AnyQuerySpec>]) {
        let n = self.searches.len();
        let parts = (n * SEARCH_QUERIES / GRAIN_QUERIES).clamp(1, self.workers.len());
        self.cuts.clear();
        self.cuts.extend((1..=parts).map(|w| n * w / parts));
        let (grid, epoch, collect_deltas) = (&self.grid, self.epoch, self.collect_deltas);
        fan_out(
            &mut self.workers,
            &mut self.searches,
            &self.cuts,
            &|worker, _, part| {
                for (search, st) in part {
                    worker.search(grid, epoch, collect_deltas, *search, events, st);
                }
            },
        );
        for (_, st) in self.searches.drain(..) {
            let slot = st.slot as usize;
            self.queries[slot] = Some(st);
        }
        self.join();
    }

    /// The join of a parallel step: fold in every worker's counters, then
    /// append the other workers' changed ids and deltas to the first's,
    /// all in worker order — the order one worker would have produced
    /// them in.
    fn join(&mut self) {
        for worker in &mut self.workers {
            self.metrics.merge(&worker.metrics.take());
        }
        let (first, others) = self.workers.split_first_mut().expect("one worker at least");
        for worker in others {
            first.changed.append(&mut worker.changed);
            first.deltas.append(&mut worker.deltas);
        }
    }

    /// Total memory footprint in the paper's memory units (Section 4.1):
    /// grid data plus influence entries and query-table state.
    #[must_use]
    pub(crate) fn space_units(&self) -> usize {
        let installed = self.queries.iter().flatten();
        let queries: usize = installed
            .map(|st| st.space_units() + st.influence_len)
            .sum();
        self.grid.space_units() + queries
    }

    /// Verify all cross-structure invariants (test helper).
    pub(crate) fn check_invariants(&self) {
        self.grid.check_integrity();
        for (qid, &slot) in &self.slot_of {
            let st = self.queries[slot as usize].as_ref().expect("mapped slot");
            assert_eq!((*qid, slot), (st.id, st.slot));
            st.best.check_invariants();
            for w in st.visit_list.windows(2) {
                assert!(w[0].1 <= w[1].1, "visit list out of order");
            }
            let expected = influence_prefix(&st.visit_list, st.best_dist());
            assert_eq!(st.influence_len, expected, "prefix mismatch for {qid}");
            // A cell visited twice would hand its moves to the query twice
            // once the prefix reached it.
            let dim = self.grid.dim();
            let mut cells: Vec<u64> = st.visit_list.iter().map(|(c, _)| c.id(dim)).collect();
            cells.sort_unstable();
            assert!(
                cells.windows(2).all(|w| w[0] < w[1]),
                "{qid} visits a cell twice"
            );
            for n in st.result() {
                let p = self
                    .grid
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
        assert!(self
            .free
            .iter()
            .all(|&s| self.queries[s as usize].is_none()));
        assert_eq!(self.slot_of.len() + self.free.len(), self.queries.len());
        assert_eq!(self.pending.len(), self.queries.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpmServer, CpmServerBuilder, PointQuery};
    use cpm_geom::{ObjectId, Point};

    fn server(dim: u32, threads: usize) -> CpmServer {
        let threads = NonZeroUsize::new(threads).unwrap();
        CpmServerBuilder::new(dim).threads(threads).build()
    }

    #[test]
    fn metrics_count_ingest_once() {
        let mut m = server(8, 4);
        m.populate([
            (ObjectId(0), Point::new(0.1, 0.1)),
            (ObjectId(1), Point::new(0.9, 0.9)),
        ])
        .unwrap();
        for qi in 0..8u32 {
            m.install_spec(QueryId(qi), PointQuery(Point::new(0.5, 0.5)), 1)
                .unwrap();
        }
        m.take_metrics();
        let step = ObjectEvent::Move {
            id: ObjectId(0),
            to: Point::new(0.2, 0.2),
        };
        m.process_cycle(&[step], &[]).unwrap();
        let metrics = m.take_metrics();
        // One grid update regardless of thread count.
        assert_eq!(metrics.updates_applied, 1);
        // And taking resets: a fresh snapshot is all zeros.
        assert_eq!(m.metrics(), Metrics::default());
    }

    #[test]
    fn query_events_apply_in_batch_order() {
        let mut m = server(16, 4);
        m.populate((0..50u32).map(|i| (ObjectId(i), Point::new(i as f64 / 50.0, 0.5))))
            .unwrap();
        let installs: Vec<SpecEvent<AnyQuerySpec>> = (0..20u32)
            .map(|i| SpecEvent::Install {
                id: QueryId(i),
                spec: PointQuery(Point::new(i as f64 / 20.0, 0.5)).into(),
                k: 3,
            })
            .collect();
        let changed = m.process_cycle(&[], &installs).unwrap();
        assert_eq!(changed.len(), 20);
        assert!(changed.windows(2).all(|w| w[0] < w[1]), "not sorted");
        assert_eq!(m.query_count(), 20);
        m.check_invariants();

        let moves = (0..20u32).step_by(2).map(|i| SpecEvent::Update {
            id: QueryId(i),
            spec: PointQuery(Point::new(1.0 - i as f64 / 20.0, 0.4)).into(),
        });
        let terminates = (1..20u32)
            .step_by(2)
            .map(|i| SpecEvent::Terminate { id: QueryId(i) });
        // A terminate frees its slot for an install later in the batch.
        let reinstall = SpecEvent::Install {
            id: QueryId(99),
            spec: PointQuery(Point::new(0.3, 0.6)).into(),
            k: 2,
        };
        let events: Vec<_> = moves.chain(terminates).chain([reinstall]).collect();
        let changed = m.process_cycle(&[], &events).unwrap();
        assert_eq!(changed.len(), 11);
        assert_eq!(m.query_count(), 11);
        m.check_invariants();

        // The next cycle resolves the reinstalled query at its recycled
        // slot and no longer the terminated ones: one object cycle that
        // pulls objects past every query leaves each result the brute
        // force one.
        let pulls: Vec<ObjectEvent> = (0..50u32)
            .step_by(3)
            .map(|i| ObjectEvent::Move {
                id: ObjectId(i),
                to: Point::new(
                    0.3 + f64::from(i % 7) * 0.02,
                    0.45 + f64::from(i % 5) * 0.04,
                ),
            })
            .collect();
        m.process_cycle(&pulls, &[]).unwrap();
        m.check_invariants();
        for id in m.query_ids() {
            let st = m.query_state(id).unwrap();
            let mut brute: Vec<Neighbor> = (m.grid().iter_objects())
                .map(|(id, p)| Neighbor {
                    id,
                    dist: st.spec.dist(p),
                })
                .collect();
            brute.sort_unstable_by(|a, b| (a.dist, a.id).partial_cmp(&(b.dist, b.id)).unwrap());
            brute.truncate(st.k());
            assert_eq!(st.result(), brute.as_slice(), "query {id}");
        }
        m.terminate(QueryId(0)).unwrap();
        assert_eq!(m.query_count(), 10);
        m.check_invariants();
    }

    /// The query-side join against a plain membership test: on a random
    /// stream of moves, appears, disappears, query updates and a re-grid,
    /// every query without a pending event is handed a record's departure
    /// iff the record's old cell is in its influence prefix, and its
    /// arrival iff the new cell is — each once — and a query with a
    /// pending event or no move is handed nothing. Resolve, the query
    /// events' searches and the re-grid split across workers, and the
    /// changed lists and counters are those of `T = 1`.
    #[test]
    fn each_query_is_handed_the_moves_its_influence_lists_route() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;

        const OBJECTS: u32 = 3_000;
        const QUERIES: u32 = 600;
        let mut rng = StdRng::seed_from_u64(0x1F1E);
        let mut point = || Point::new(rng.gen(), rng.gen());
        let knn = |p| AnyQuerySpec::Knn(PointQuery(p));
        let appears: Vec<ObjectEvent> = (0..OBJECTS)
            .map(|i| ObjectEvent::Appear {
                id: ObjectId(i),
                pos: point(),
            })
            .collect();
        let installs: Vec<_> = (0..QUERIES)
            .map(|i| SpecEvent::Install {
                id: QueryId(i),
                spec: knn(point()),
                k: 1 + i as usize % 12,
            })
            .collect();
        // Per cycle: every live object moves, disappears or stays, some
        // off-line ones appear, and a quarter of the queries move.
        let mut live = vec![true; OBJECTS as usize];
        let mut stream = Vec::new();
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for cycle in 0..8u32 {
            let mut objects = Vec::new();
            for (i, alive) in live.iter_mut().enumerate() {
                let id = ObjectId(i as u32);
                let roll = rng.gen_range(0..10);
                match (*alive, roll) {
                    (true, 0) => {
                        *alive = false;
                        objects.push(ObjectEvent::Disappear { id });
                    }
                    (true, 1..=5) => objects.push(ObjectEvent::Move {
                        id,
                        to: Point::new(rng.gen(), rng.gen()),
                    }),
                    (false, 0..=4) => {
                        *alive = true;
                        objects.push(ObjectEvent::Appear {
                            id,
                            pos: Point::new(rng.gen(), rng.gen()),
                        });
                    }
                    _ => {}
                }
            }
            let queries: Vec<_> = (0..QUERIES)
                .filter(|i| (i + cycle) % 4 == 0)
                .map(|i| SpecEvent::Update {
                    id: QueryId(i),
                    spec: knn(Point::new(rng.gen(), rng.gen())),
                })
                .collect();
            stream.push((objects, queries));
        }

        let runs = [1, 2, 4].map(|threads| {
            let grid = cpm_grid::GridBuilder::new(32).build_uniform();
            let mut m = CpmEngine::with_grid(grid, NonZeroUsize::new(threads).unwrap());
            m.populate(&appears);
            let mut seen = vec![m.process_cycle(&[], &installs)];
            for (cycle, (objects, queries)) in stream.iter().enumerate() {
                if cycle == 3 {
                    m.regrid_to(48).unwrap();
                }
                // The reference: every query without a pending event,
                // with its influence prefix as a set of cells.
                let moving: Vec<QueryId> = queries.iter().map(SpecEvent::id).collect();
                let dim = m.grid().dim();
                let prefixes: Vec<(QueryId, Vec<bool>)> = (m.queries.iter().flatten())
                    .filter(|st| !moving.contains(&st.id))
                    .map(|st| {
                        let mut inside = vec![false; (dim * dim) as usize];
                        for &(c, _) in &st.visit_list[..st.influence_len] {
                            inside[c.id(dim) as usize] = true;
                        }
                        (st.id, inside)
                    })
                    .collect();
                for worker in &mut m.workers {
                    worker.handed.clear();
                }

                seen.push(m.process_cycle(objects, queries));
                m.check_invariants();

                let mut routed: BTreeMap<QueryId, Vec<u32>> = BTreeMap::new();
                for (q, inside) in &prefixes {
                    let hit = |c: Option<CellCoord>| c.is_some_and(|c| inside[c.id(dim) as usize]);
                    let ends = (0..)
                        .zip(&m.records)
                        .flat_map(|(i, rec)| [(rec.old_cell, i << 1), (rec.new_cell, i << 1 | 1)]);
                    let moves: Vec<u32> = ends.filter(|&(c, _)| hit(c)).map(|(_, e)| e).collect();
                    if !moves.is_empty() {
                        routed.insert(*q, moves);
                    }
                }
                let mut handed = BTreeMap::new();
                for worker in &mut m.workers {
                    for (q, moves) in worker.handed.drain(..) {
                        assert!(handed.insert(q, moves).is_none(), "{q} resolved twice");
                    }
                }
                for moves in routed.values_mut().chain(handed.values_mut()) {
                    moves.sort_unstable();
                }
                assert!(
                    routed.len() > QUERIES as usize / 2,
                    "cycle {cycle}: too few routed"
                );
                assert_eq!(handed, routed, "cycle {cycle}, T = {threads}");
            }
            (seen, m.metrics())
        });
        assert_eq!(runs[0], runs[1], "T = 2");
        assert_eq!(runs[0], runs[2], "T = 4");
    }
}
