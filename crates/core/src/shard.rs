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
//!    the grid, and it is cheap (`Time_ind = 2` per update).
//! 2. **Route + group** (serial). The records are routed once through the
//!    one influence table into `(query, record, departure | arrival)`
//!    pairs, grouped by query slot with a counting sort.
//! 3. **Resolve** (`T` workers). Consecutive slot ranges of about equal
//!    pair count — read off the counting sort's prefix sums — each go to
//!    one worker, which resolves its queries against the immutable grid.
//! 4. **Query events**: terminates and the slot allocation of installs
//!    run serially, in event order; the from-scratch searches of installs
//!    and updates then run on the `T` workers. A batch names each query
//!    at most once, so no search waits on another.
//!
//! A re-grid's re-registration of every query is parallel the same way.
//! Workers are the calling thread plus `T − 1` `std::thread::scope`
//! threads, spawned only when a step holds enough work to pay for them.
//! Each worker owns its part of the query table and its own counters,
//! changed ids, deltas and buffered influence writes; the join applies
//! and concatenates them in worker order, which is slot order for
//! resolve, event order for query events and id order for a re-grid —
//! the order `T = 1` produces. Because each query's processing depends
//! only on its own state, its own events in batch order and the
//! post-ingest grid, results, changed lists, delta batches, [`Metrics`]
//! and the order inside every influence list are **bit-identical** at
//! every thread count: `T = 1` is the same split with one part. The
//! threads suite (`tests/thread_determinism.rs`) and `cpm_sim`'s oracle
//! cross-check assert it on random workloads.
//!
//! The engine trusts its caller: every batch it sees has passed the
//! server's validation (one event per object and per query, live objects
//! move and disappear, off-line ones appear, known queries update and
//! terminate), and it keeps no code for any other batch.

use std::num::NonZeroUsize;

use cpm_geom::{FastHashMap, ObjectId, Point, QueryId};
use cpm_grid::{apply_events, Grid, GridGeom, InfluenceTable, Metrics, ObjectEvent, UpdateRecord};

use crate::delta::{CycleDeltas, NeighborDelta};
use crate::engine::{QuerySpec, Resolve, Search, SpecEvent, SpecQueryState, Worker};
use crate::error::CpmError;
use crate::neighbors::Neighbor;
use crate::regrid::{RegridController, RegridPolicy};

/// Spawning and joining one `std::thread::scope` worker costs ~35 µs on
/// the two-thread x86-64 host the benchmark was developed on (5,000
/// rounds of one spawn each, five repetitions: 34–40 µs). Resolving one
/// `(query, record)` pair costs ~60 ns there (`paper_default`: ~13.5 ms of
/// resolve over ~218K pairs per cycle), so a split only pays once every
/// worker gets a few thousand pairs: this grain is ~3.5× the spawn cost,
/// and a step with less work than two grains runs inline, spawning
/// nothing.
const GRAIN_PAIRS: usize = 2048;

/// A from-scratch search — a query event or a re-grid re-registration —
/// in pairs: ~5.5 µs per search on the same host, against ~60 ns per pair.
const SEARCH_PAIRS: usize = 90;

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

/// The conceptual-partitioning monitor: a grid plus the query
/// book-keeping of Section 3, whose per-cycle maintenance runs on `T`
/// threads (see the [module docs](self) for the phase structure).
///
/// All queries in one engine share the same [`QuerySpec`] type; the
/// server runs one over [`crate::AnyQuerySpec`]. Every call comes from
/// [`crate::CpmServer`] or snapshot restore after their checks, so a
/// call the server would refuse is a bug here and panics.
///
/// [`CpmEngine::process_cycle`] reports changed queries in canonical
/// (ascending id) order.
#[derive(Debug)]
pub(crate) struct CpmEngine<S: QuerySpec> {
    grid: Grid,
    /// Influence lists, holding query-table slots: update handling goes
    /// from a cell to the affected states without hashing a query id.
    influence: InfluenceTable<u32>,
    /// The query table (Figure 3.3a): a slab of states, vacant slots
    /// listed in `free`. A state is boxed so that a search step moves a
    /// pointer, not the state, out of the table and back.
    queries: Vec<Option<Box<SpecQueryState<S>>>>,
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
    /// The cycle's `(query, record, departure | arrival)` pairs grouped
    /// by query slot, each packed `record index << 1 | arrival`; slot
    /// `s`'s group ends at `group_ends[s]` and starts where the previous
    /// slot's ends. Both recycled across cycles.
    pairs: Vec<u32>,
    group_ends: Vec<usize>,
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
    searches: Vec<(Search, Box<SpecQueryState<S>>)>,
    /// Re-grid policy state. Every decision input is a function of the
    /// stream and the engine state, so the controller decides identically
    /// at every thread count.
    regrid: RegridController,
}

impl<S: QuerySpec + Send + Sync> CpmEngine<S> {
    /// Create an engine over an empty `dim × dim` grid whose maintenance
    /// runs on `threads` threads (`1` spawns none).
    #[cfg(test)]
    pub(crate) fn new(dim: u32, threads: NonZeroUsize) -> Self {
        Self::with_grid(cpm_grid::GridBuilder::new(dim).build_uniform(), threads)
    }

    /// Create an engine over a pre-built (typically empty) grid whose
    /// maintenance runs on `threads` threads.
    pub(crate) fn with_grid(grid: Grid, threads: NonZeroUsize) -> Self {
        Self {
            influence: InfluenceTable::new(grid.dim()),
            grid,
            queries: Vec::new(),
            free: Vec::new(),
            slot_of: FastHashMap::default(),
            metrics: Metrics::default(),
            epoch: 0,
            pending: Vec::new(),
            records: Vec::new(),
            pairs: Vec::new(),
            group_ends: Vec::new(),
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
    /// new δ — searched on the worker threads, registered in ascending
    /// query-id order (the order a fresh engine installs them in), so the
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
        // Packed cell ids from the old resolution are meaningless now.
        self.influence.reset(new_dim);
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

    /// Bulk-load objects before any query is installed.
    ///
    /// # Panics
    /// Panics if queries are already installed.
    pub(crate) fn populate<It: IntoIterator<Item = (ObjectId, Point)>>(&mut self, objects: It) {
        assert!(
            self.query_count() == 0,
            "populate() is only valid before queries are installed"
        );
        for (oid, pos) in objects {
            self.grid.insert(oid, pos);
        }
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
    pub(crate) fn query_state(&self, id: QueryId) -> Option<&SpecQueryState<S>> {
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

    /// A fresh state for query `id` (not installed, `k ≥ 1`) on a vacant
    /// slot, the slot already mapped; the caller searches it and puts it
    /// in the table.
    fn vacant_state(&mut self, id: QueryId, spec: S, k: usize) -> Box<SpecQueryState<S>> {
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

    /// Install a new query (`id` not installed, `k ≥ 1`) and compute its
    /// initial result.
    pub(crate) fn install(&mut self, id: QueryId, spec: S, k: usize) -> &[Neighbor] {
        let mut st = self.vacant_state(id, spec, k);
        self.workers[0].compute_from_scratch(&self.grid, &mut st);
        self.join();
        let slot = st.slot as usize;
        self.queries[slot].insert(st).result()
    }

    /// Terminate installed query `id`.
    pub(crate) fn terminate(&mut self, id: QueryId) {
        let slot = self
            .slot_of
            .remove(&id)
            .unwrap_or_else(|| panic!("query {id} is not installed"));
        let st = self.queries[slot as usize].take().expect("mapped slot");
        for &(cell, _) in &st.visit_list[..st.influence_len] {
            self.influence.remove(cell, slot);
        }
        self.free.push(slot);
    }

    /// Replace the geometry of installed query `id` (terminate +
    /// reinstall, as in Section 3.3), between cycles.
    pub(crate) fn update_spec(&mut self, id: QueryId, spec: S) -> &[Neighbor] {
        let slot = self.slot(id) as usize;
        let st = self.queries[slot].as_mut().expect("mapped slot");
        let worker = &mut self.workers[0];
        worker.unregister(st);
        st.spec = spec;
        worker.compute_from_scratch(&self.grid, st);
        self.join();
        self.queries[slot].as_ref().expect("mapped slot").result()
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
        query_events: &[SpecEvent<S>],
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
        query_events: &[SpecEvent<S>],
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
        query_events: &[SpecEvent<S>],
        changed: &mut Vec<QueryId>,
        deltas: &mut Vec<(QueryId, NeighborDelta)>,
    ) {
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
        // Phases 2–4: route + group, resolve, query events.
        self.route_and_group();
        self.resolve_all();
        self.apply_query_events(query_events);
        std::mem::swap(changed, &mut self.workers[0].changed);
        std::mem::swap(deltas, &mut self.workers[0].deltas);

        // Canonical order. A query with a pending query event is skipped
        // during update handling, so the list is duplicate-free.
        changed.sort_unstable();
    }

    /// Route + group, the serial head of Figure 3.8's batched update
    /// handling ("for each query q affected by updates in U_P"):
    ///
    /// 1. **Route**: walk the records, reading nothing but the influence
    ///    lists, once to count the `(query, record, departure | arrival)`
    ///    pairs per query slot and once to scatter them. A record that
    ///    touches no influenced cell costs two directory reads per walk.
    /// 2. **Group**: the scatter *is* the grouping — a counting sort over
    ///    the dense slots, stable by construction: each query's events
    ///    stay in batch order, a record's departure before its arrival.
    fn route_and_group(&mut self) {
        assert!(
            self.records.len() <= (u32::MAX >> 1) as usize,
            "record index must fit the packed pair"
        );
        let mut ends = std::mem::take(&mut self.group_ends);
        ends.clear();
        ends.resize(self.queries.len(), 0);
        self.for_each_pair(|slot, _| ends[slot] += 1);
        let mut total = 0;
        for end in &mut ends {
            let count = *end;
            *end = total; // the group's start; the scatter advances it to its end
            total += count;
        }

        let mut pairs = std::mem::take(&mut self.pairs);
        pairs.clear();
        pairs.resize(total, 0);
        self.for_each_pair(|slot, pair| {
            pairs[ends[slot]] = pair;
            ends[slot] += 1;
        });
        self.pairs = pairs;
        self.group_ends = ends;
    }

    /// Visit every `(query slot, packed pair)` of the batch in batch
    /// order, a record's departure before its arrival.
    fn for_each_pair(&self, mut visit: impl FnMut(usize, u32)) {
        for (i, rec) in self.records.iter().enumerate() {
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

    /// The resolve step: every query with pairs resolves its departures
    /// and arrivals, then merges or recomputes, while its state is the
    /// only one in cache. The workers take consecutive slot ranges of
    /// about equal pair count, read off the counting sort's prefix sums.
    /// A query's outcome depends on its own pairs, on the post-ingest
    /// grid and on its own state — none of which another query's
    /// resolution writes — so results, `changed`, deltas and `Metrics`
    /// are those of walking the batch record by record.
    fn resolve_all(&mut self) {
        let ends = &self.group_ends;
        let total = ends.last().copied().unwrap_or(0);
        let parts = (total / GRAIN_PAIRS).clamp(1, self.workers.len());
        self.cuts.clear();
        for w in 1..parts {
            // The part ends after the slot whose group reaches the target.
            let cut = ends.partition_point(|&end| end < total * w / parts) + 1;
            if ends[cut - 1] == total {
                break; // every later slot is empty: they join the last part
            }
            if cut > self.cuts.last().copied().unwrap_or(0) {
                self.cuts.push(cut);
            }
        }
        self.cuts.push(ends.len());
        let step = Resolve {
            grid: &self.grid,
            records: &self.records,
            pairs: &self.pairs,
            group_ends: ends,
            pending: &self.pending,
            epoch: self.epoch,
            collect_deltas: self.collect_deltas,
        };
        fan_out(
            &mut self.workers,
            &mut self.queries,
            &self.cuts,
            &|worker, first, states| {
                let mut start = first.checked_sub(1).map_or(0, |s| step.group_ends[s]);
                for (slot, st) in (first..).zip(states) {
                    let end = step.group_ends[slot];
                    if end > start && step.pending[slot] != step.epoch {
                        let st = st.as_mut().expect("influence list in sync");
                        worker.resolve(&step, st, &step.pairs[start..end]);
                    }
                    start = end;
                }
            },
        );
        self.join();
    }

    /// The cycle's query events, in event order. Terminates, the slot
    /// allocation of installs and the hand-over of every searched state
    /// run serially; the searches themselves run on the workers.
    fn apply_query_events(&mut self, events: &[SpecEvent<S>]) {
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
    fn search_all(&mut self, events: &[SpecEvent<S>]) {
        let n = self.searches.len();
        let parts = (n * SEARCH_PAIRS / GRAIN_PAIRS).clamp(1, self.workers.len());
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

    /// The join of a parallel step: apply every worker's influence writes
    /// and fold in its counters, then append the other workers' changed
    /// ids and deltas to the first's, all in worker order — the order one
    /// worker would have produced them in.
    fn join(&mut self) {
        for worker in &mut self.workers {
            for (cell, slot, register) in worker.influence_ops.drain(..) {
                if register {
                    self.influence.add(cell, slot);
                } else {
                    self.influence.remove(cell, slot);
                }
            }
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
        let queries: usize = installed.map(|st| st.space_units()).sum();
        self.grid.space_units() + queries + self.influence.total_entries()
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
            let bd = st.best_dist();
            for (i, &(cell, key)) in st.visit_list.iter().enumerate() {
                let registered = self.influence.contains(cell, slot);
                assert_eq!(registered, i < st.influence_len, "registration mismatch");
                if bd.is_finite() {
                    assert_eq!(key <= bd, i < st.influence_len, "prefix mismatch");
                }
            }
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
        let installed = self.queries.iter().flatten();
        let total: usize = installed.map(|st| st.influence_len).sum();
        assert_eq!(self.influence.total_entries(), total);
        assert!(self
            .free
            .iter()
            .all(|&s| self.queries[s as usize].is_none()));
        assert_eq!(self.slot_of.len() + self.free.len(), self.queries.len());
        assert_eq!(self.pending.len(), self.queries.len());
        assert!(self.workers.iter().all(|w| w.influence_ops.is_empty()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PointQuery;

    #[test]
    fn metrics_count_ingest_once() {
        let mut m = CpmEngine::<PointQuery>::new(8, NonZeroUsize::new(4).unwrap());
        m.populate([
            (ObjectId(0), Point::new(0.1, 0.1)),
            (ObjectId(1), Point::new(0.9, 0.9)),
        ]);
        for qi in 0..8u32 {
            m.install(QueryId(qi), PointQuery(Point::new(0.5, 0.5)), 1);
        }
        m.take_metrics();
        m.process_cycle(
            &[ObjectEvent::Move {
                id: ObjectId(0),
                to: Point::new(0.2, 0.2),
            }],
            &[],
        );
        let metrics = m.take_metrics();
        // One grid update regardless of thread count.
        assert_eq!(metrics.updates_applied, 1);
        // And taking resets: a fresh snapshot is all zeros.
        assert_eq!(m.metrics(), Metrics::default());
    }

    #[test]
    fn query_events_apply_in_batch_order() {
        let mut m = CpmEngine::<PointQuery>::new(16, NonZeroUsize::new(4).unwrap());
        m.populate((0..50u32).map(|i| (ObjectId(i), Point::new(i as f64 / 50.0, 0.5))));
        let installs: Vec<SpecEvent<PointQuery>> = (0..20u32)
            .map(|i| SpecEvent::Install {
                id: QueryId(i),
                spec: PointQuery(Point::new(i as f64 / 20.0, 0.5)),
                k: 3,
            })
            .collect();
        let changed = m.process_cycle(&[], &installs);
        assert_eq!(changed.len(), 20);
        assert!(changed.windows(2).all(|w| w[0] < w[1]), "not sorted");
        assert_eq!(m.query_count(), 20);
        m.check_invariants();

        let moves = (0..20u32).step_by(2).map(|i| SpecEvent::Update {
            id: QueryId(i),
            spec: PointQuery(Point::new(1.0 - i as f64 / 20.0, 0.4)),
        });
        let terminates = (1..20u32)
            .step_by(2)
            .map(|i| SpecEvent::Terminate { id: QueryId(i) });
        // A terminate frees its slot for an install later in the batch.
        let reinstall = SpecEvent::Install {
            id: QueryId(99),
            spec: PointQuery(Point::new(0.3, 0.6)),
            k: 2,
        };
        let events: Vec<SpecEvent<PointQuery>> =
            moves.chain(terminates).chain([reinstall]).collect();
        let changed = m.process_cycle(&[], &events);
        assert_eq!(changed.len(), 11);
        assert_eq!(m.query_count(), 11);
        m.check_invariants();
        m.terminate(QueryId(0));
        assert_eq!(m.query_count(), 10);
        m.check_invariants();
    }

    /// Resolve, the query events' searches and a re-grid split across
    /// workers, and every influence list — order included — is the one
    /// `T = 1` builds, alongside the changed lists and the counters.
    #[test]
    fn influence_lists_are_identical_across_thread_counts() {
        let point = |i: u32, salt: u32| {
            let t = f64::from(i.wrapping_mul(2_654_435_761) ^ salt);
            Point::new((t * 0.000_37) % 1.0, (t * 0.000_61) % 1.0)
        };
        let runs = [1, 2, 4].map(|threads| {
            let mut m = CpmEngine::<PointQuery>::new(32, NonZeroUsize::new(threads).unwrap());
            m.populate((0..3_000u32).map(|i| (ObjectId(i), point(i, 0))));
            let installs: Vec<_> = (0..600u32)
                .map(|i| SpecEvent::Install {
                    id: QueryId(i),
                    spec: PointQuery(point(i, 7)),
                    k: 8,
                })
                .collect();
            let mut seen = vec![m.process_cycle(&[], &installs)];
            for cycle in 1..6u32 {
                if cycle == 3 {
                    m.regrid_to(48).unwrap();
                }
                let moves: Vec<_> = (0..3_000u32)
                    .filter(|i| (i + cycle) % 3 != 0)
                    .map(|i| ObjectEvent::Move {
                        id: ObjectId(i),
                        to: point(i, cycle),
                    })
                    .collect();
                let updates: Vec<_> = (0..600u32)
                    .filter(|i| (i + cycle) % 4 == 0)
                    .map(|i| SpecEvent::Update {
                        id: QueryId(i),
                        spec: PointQuery(point(i, 100 + cycle)),
                    })
                    .collect();
                seen.push(m.process_cycle(&moves, &updates));
                m.check_invariants();
            }
            let dim = m.grid().dim();
            let lists: Vec<Vec<u32>> = (0..dim)
                .flat_map(|r| (0..dim).map(move |c| cpm_grid::CellCoord::new(c, r)))
                .map(|cell| m.influence.queries_at(cell).to_vec())
                .collect();
            (seen, m.metrics(), lists)
        });
        assert_eq!(runs[0], runs[1], "T = 2");
        assert_eq!(runs[0], runs[2], "T = 4");
    }
}
