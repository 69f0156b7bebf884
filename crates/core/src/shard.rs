//! [`ShardedCpmEngine`]: the CPM engine — a shared grid plus `S ≥ 1`
//! query shards, each an `EngineCore` maintained on its own worker
//! thread. `S = 1` is the sequential engine: no routing, no threads.
//!
//! The per-cycle work of Section 4.1 is embarrassingly partitionable: a
//! query's re-evaluation touches only its influence region and its own
//! book-keeping, and the batched in/out update handling of Figure 3.8 is
//! independent across queries. [`ShardedCpmEngine`] exploits this by
//! hashing installed queries into `S` disjoint shards — each shard owns its
//! queries' [`SpecQueryState`]s *and* its own influence table — and running
//! each processing cycle in two phases:
//!
//! 1. **Sequential grid ingest.** The object-update batch is applied to the
//!    shared grid once, producing read-only [`UpdateRecord`]s
//!    ([`cpm_grid::apply_events`]). This is the only step that mutates the
//!    grid and it is cheap (`Time_ind = 2` per update).
//! 2. **Parallel per-shard maintenance: route → group → resolve.** Every
//!    shard, on its own `std::thread::scope` worker, *routes* the batch
//!    through its influence table (a record that touches no cell this
//!    shard's queries are influenced by costs only directory reads),
//!    *groups* the resulting `(query, record)` pairs by query, and
//!    *resolves* one query at a time — departures and arrivals in batch
//!    order, then merge-or-recompute — against the now immutable grid;
//!    then it applies its share of the query events. The code is the
//!    same at every `S`; one shard simply owns every query.
//!
//! Results are merged deterministically: the changed-query lists are
//! concatenated in shard order and canonicalized by query id, and the
//! per-shard [`Metrics`] are summed with [`Metrics::merge`] (u64 addition —
//! associative and commutative, so totals are independent of scheduling).
//! Because each query's processing depends only on its own state, its own
//! events in batch order, and the post-ingest grid — the same fact that
//! lets a shard handle the batch query by query instead of record by
//! record — the per-query results are **bit-identical** to the `S = 1`
//! engine's for every shard count, a property the determinism suite
//! (`tests/sharded_determinism.rs`) and [`cpm_sim`'s oracle cross-check]
//! assert on random workloads.
//!
//! [`cpm_sim`'s oracle cross-check]: ../../cpm_sim/verify/fn.verify.html

use cpm_geom::{ObjectId, Point, QueryId};
use cpm_grid::{apply_events, Grid, GridGeom, Metrics, ObjectEvent, UpdateRecord};

use crate::delta::{CycleDeltas, NeighborDelta};
use crate::engine::{EngineCore, QuerySpec, SpecEvent, SpecQueryState};
use crate::error::CpmError;
use crate::neighbors::Neighbor;
use crate::regrid::{RegridController, RegridPolicy};

/// Deterministic shard assignment: an FxHash-style finalizer over the query
/// id, reduced modulo `shards`.
///
/// Purely a function of `(id, shards)` — never of installation order or
/// thread scheduling — so replaying a stream with the same shard count
/// always reproduces the same partition. The multiply spreads consecutive
/// ids (the common allocation pattern) across shards evenly.
#[inline]
pub fn shard_of(id: QueryId, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let h = (id.0 as u64 ^ 0x517_cc1b).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) as usize) % shards
}

/// One shard's share of a processing cycle: batched update handling over
/// the shared (now immutable) grid, then this shard's query events.
/// The returned delta list is empty unless the core collects deltas.
fn run_shard<S: QuerySpec>(
    core: &mut EngineCore<S>,
    grid: &Grid,
    records: &[UpdateRecord],
    events: &[SpecEvent<S>],
) -> (Vec<QueryId>, Vec<(QueryId, NeighborDelta)>) {
    let mut changed = Vec::new();
    core.begin_cycle(events.iter().map(|ev| ev.id()));
    core.apply_records(grid, records, &mut changed);
    core.apply_query_events(grid, events, &mut changed);
    core.finish_regrid(&mut changed);
    (changed, core.take_deltas())
}

/// The conceptual-partitioning monitor: a grid plus the query
/// book-keeping of Section 3, whose per-cycle maintenance runs across `S`
/// worker threads (see the [module docs](self) for the phase structure).
///
/// All queries in one engine share the same [`QuerySpec`] type;
/// heterogeneous workloads use [`crate::AnyQuerySpec`] (what
/// [`crate::CpmServer`] does). This is the *trusting* surface that
/// algorithms, figures and tests drive: events are applied in batch
/// order, stray coordinates are clamped by the grid, and a malformed
/// batch (an update of an unknown query, a disappearance of an off-line
/// object) panics. Input from outside the program goes through
/// [`crate::CpmServer`], which validates first.
///
/// [`ShardedCpmEngine::process_cycle`] reports changed queries in
/// canonical (ascending id) order; work counters are read through merged
/// snapshots ([`ShardedCpmEngine::metrics`]).
///
/// # Example
///
/// ```
/// use cpm_core::{PointQuery, ShardedCpmEngine};
/// use cpm_geom::{ObjectId, Point, QueryId};
/// use cpm_grid::ObjectEvent;
///
/// let mut engine = ShardedCpmEngine::<PointQuery>::new(64, 1);
/// engine.populate((0..100).map(|i| {
///     (ObjectId(i), Point::new((i as f64 + 0.5) / 100.0, 0.5))
/// }));
/// let nn = engine.install(QueryId(0), PointQuery(Point::new(0.1042, 0.5)), 2)?;
/// assert_eq!(nn[0].id, ObjectId(10)); // object at x = 0.105
///
/// // One object teleports right next to the query point.
/// let changed = engine.process_cycle(
///     &[ObjectEvent::Move { id: ObjectId(50), to: Point::new(0.104, 0.5) }],
///     &[],
/// );
/// assert_eq!(changed, vec![QueryId(0)]);
/// assert_eq!(engine.result(QueryId(0)).unwrap()[0].id, ObjectId(50));
/// # Ok::<(), cpm_core::CpmError>(())
/// ```
#[derive(Debug)]
pub struct ShardedCpmEngine<S: QuerySpec> {
    grid: Grid,
    shards: Vec<EngineCore<S>>,
    /// Counters owned by the ingest phase (currently `updates_applied`),
    /// kept separate so the shared grid's work is counted exactly once no
    /// matter how many shards consume the batch.
    ingest_metrics: Metrics,
    records: Vec<UpdateRecord>,
    /// Scratch: per-shard query-event routing buffers, reused across
    /// cycles (one per shard; only used when `shards > 1`).
    event_bufs: Vec<Vec<SpecEvent<S>>>,
    /// Re-grid policy state. Every decision input is a function of the
    /// stream and the (shard-count-invariant) global engine state, so the
    /// controller decides identically at every shard count.
    regrid: RegridController,
}

impl<S: QuerySpec + Send + Sync> ShardedCpmEngine<S> {
    /// Create an engine over an empty `dim × dim` grid with `shards ≥ 1`
    /// query shards. `shards = 1` is the sequential engine (no worker
    /// threads are spawned).
    ///
    /// # Panics
    /// Panics if `shards == 0` or `dim` is out of `1..=4096`.
    pub fn new(dim: u32, shards: usize) -> Self {
        Self::with_grid(cpm_grid::GridBuilder::new(dim).build_uniform(), shards)
    }

    /// Create an engine over a pre-built (typically empty) grid with
    /// `shards ≥ 1` query shards.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn with_grid(grid: Grid, shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard is required");
        let dim = grid.dim();
        Self {
            grid,
            shards: (0..shards).map(|_| EngineCore::new(dim)).collect(),
            ingest_metrics: Metrics::default(),
            records: Vec::new(),
            event_bufs: (0..shards).map(|_| Vec::new()).collect(),
            regrid: RegridController::new(RegridPolicy::Manual),
        }
    }

    /// Replace the re-grid policy (default: [`RegridPolicy::Manual`]).
    /// With [`RegridPolicy::Auto`], the cost model is evaluated at cycle
    /// boundaries against the observed workload; an applied re-grid
    /// migrates the shared grid once and re-registers every shard's
    /// queries before the cycle's ingest runs.
    pub fn set_regrid_policy(&mut self, policy: RegridPolicy) {
        self.regrid.set_policy(policy);
    }

    /// The active re-grid policy.
    #[must_use]
    pub fn regrid_policy(&self) -> &RegridPolicy {
        self.regrid.policy()
    }

    /// Re-grid to a new resolution *now*: rebuild the shared cell index
    /// from the (untouched) object store, then re-register every shard's
    /// queries against the new δ — in parallel across shards, each in
    /// ascending query-id order, so the resulting state is bit-identical
    /// to an engine built at `new_dim` from scratch, at every shard
    /// count. Returns the number of objects migrated (0 if `new_dim` is
    /// the current dimension).
    ///
    /// # Errors
    /// [`CpmError::InvalidDim`] if `new_dim` is out of `1..=4096`.
    pub fn regrid_to(&mut self, new_dim: u32) -> Result<usize, CpmError> {
        if new_dim == self.grid.dim() {
            return Ok(0);
        }
        GridGeom::check_dim(new_dim)?;
        let migrated = self.grid.regrid(new_dim);
        // Grid-side work is owned by the ingest phase: one re-grid, one
        // migration count, no matter how many shards re-register.
        self.ingest_metrics.regrids += 1;
        self.ingest_metrics.regrid_objects_migrated += migrated as u64;
        let grid = &self.grid;
        if self.shards.len() == 1 {
            self.shards[0].rebind_grid(grid);
        } else {
            std::thread::scope(|scope| {
                for core in self.shards.iter_mut() {
                    scope.spawn(move || core.rebind_grid(grid));
                }
            });
        }
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
        let (mut n_queries, mut sum_k) = (0usize, 0usize);
        for core in &self.shards {
            let (n, k) = core.k_stats();
            n_queries += n;
            sum_k += k;
        }
        self.regrid
            .observe_cycle(object_events, query_events, n_objects, n_queries);
        self.regrid.observe_occupancy(self.grid.stats());
        let avg_k = sum_k / n_queries.max(1);
        if let Some(dim) =
            self.regrid
                .decide(self.epoch(), n_objects, n_queries, avg_k, self.grid.dim())
        {
            self.regrid_to(dim)
                .expect("the policy proposes dimensions in range");
        }
    }

    /// Number of query shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns query `id`.
    #[must_use]
    pub fn owning_shard(&self, id: QueryId) -> usize {
        shard_of(id, self.shards.len())
    }

    /// The shared object index.
    #[must_use]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Bulk-load objects before any query is installed.
    ///
    /// # Panics
    /// Panics if queries are already installed.
    pub fn populate<It: IntoIterator<Item = (ObjectId, Point)>>(&mut self, objects: It) {
        assert!(
            self.query_count() == 0,
            "populate() is only valid before queries are installed"
        );
        for (oid, pos) in objects {
            self.grid.insert(oid, pos);
        }
    }

    /// Number of installed queries across all shards.
    #[must_use]
    pub fn query_count(&self) -> usize {
        self.shards.iter().map(|s| s.query_count()).sum()
    }

    /// The current result of query `id`.
    #[must_use]
    pub fn result(&self, id: QueryId) -> Option<&[Neighbor]> {
        self.query_state(id).map(|st| st.result())
    }

    /// Full book-keeping state of query `id`.
    #[must_use]
    pub fn query_state(&self, id: QueryId) -> Option<&SpecQueryState<S>> {
        self.shards[self.owning_shard(id)].query_state(id)
    }

    /// Ids of every installed query, ascending — the deterministic
    /// iteration order snapshots and hub restores rely on.
    #[must_use]
    pub fn query_ids(&self) -> Vec<QueryId> {
        let mut ids: Vec<QueryId> = self.shards.iter().flat_map(|s| s.query_ids()).collect();
        ids.sort_unstable();
        ids
    }

    /// `true` once [`ShardedCpmEngine::enable_deltas`] was called.
    #[must_use]
    pub fn collects_deltas(&self) -> bool {
        self.shards[0].collects_deltas()
    }

    /// Install a query from a snapshot on its owning shard, reconciling
    /// the captured result against the recomputed one (see
    /// [`EngineCore::restore_query`]).
    pub(crate) fn restore_install(
        &mut self,
        id: QueryId,
        spec: S,
        k: usize,
        captured: &[Neighbor],
    ) -> Result<(), CpmError> {
        let shard = shard_of(id, self.shards.len());
        self.shards[shard].restore_query(&self.grid, id, spec, k, captured)
    }

    /// Overwrite every core's cycle counter during snapshot restore (all
    /// cores advance in lock-step, so one snapshot epoch covers them all).
    pub(crate) fn set_epoch_all(&mut self, epoch: u64) {
        for core in &mut self.shards {
            core.set_epoch(epoch);
        }
    }

    /// Overwrite the work counters with a snapshot's merged totals:
    /// rebuilding the queries polluted the per-shard counters with
    /// from-scratch computation work the crashed engine never reported,
    /// so restore zeroes the shards and parks the captured totals on the
    /// ingest side (merged reads are indistinguishable from the original
    /// split).
    pub(crate) fn restore_metrics(&mut self, merged: Metrics) {
        for core in &mut self.shards {
            core.take_metrics();
        }
        self.ingest_metrics = merged;
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

    /// Install a new query on its owning shard and compute its initial
    /// result.
    ///
    /// # Errors
    /// [`CpmError::DuplicateQuery`] if `id` is already installed,
    /// [`CpmError::InvalidK`] if `k == 0`.
    pub fn install(&mut self, id: QueryId, spec: S, k: usize) -> Result<&[Neighbor], CpmError> {
        let shard = shard_of(id, self.shards.len());
        self.shards[shard].install(&self.grid, id, spec, k)
    }

    /// Terminate query `id`.
    ///
    /// # Errors
    /// [`CpmError::UnknownQuery`] if `id` is not installed.
    pub fn terminate(&mut self, id: QueryId) -> Result<(), CpmError> {
        let shard = shard_of(id, self.shards.len());
        self.shards[shard].terminate(id)
    }

    /// Replace the geometry of query `id` on its owning shard (terminate +
    /// reinstall, as in Section 3.3).
    ///
    /// With delta capture enabled, prefer submitting a
    /// [`SpecEvent::Update`] to `process_cycle_with_deltas` instead: this
    /// direct call changes the result *between* cycles, outside the delta
    /// stream (as do [`ShardedCpmEngine::install`] and
    /// [`ShardedCpmEngine::terminate`] — legitimate for pre-stream setup,
    /// lossy mid-stream).
    ///
    /// # Errors
    /// [`CpmError::UnknownQuery`] if `id` is not installed.
    pub fn update_spec(&mut self, id: QueryId, spec: S) -> Result<&[Neighbor], CpmError> {
        let shard = shard_of(id, self.shards.len());
        let grid = &self.grid;
        self.shards[shard].update_spec(grid, id, spec)
    }

    /// Merged snapshot of the work counters accumulated since the last
    /// [`ShardedCpmEngine::take_metrics`]: the sum of every shard's
    /// counters plus the ingest phase's.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        let mut total = self.ingest_metrics;
        for shard in &self.shards {
            total.merge(shard.metrics());
        }
        total
    }

    /// Take and reset the work counters of the ingest phase and of every
    /// shard, returning the merged totals.
    pub fn take_metrics(&mut self) -> Metrics {
        let mut total = self.ingest_metrics.take();
        for shard in &mut self.shards {
            total.merge(&shard.take_metrics());
        }
        total
    }

    /// Run one processing cycle: sequential grid ingest, then parallel
    /// per-shard maintenance and query events, then a deterministic merge.
    /// Returns ids of queries whose result changed, ascending by id.
    pub fn process_cycle(
        &mut self,
        object_events: &[ObjectEvent],
        query_events: &[SpecEvent<S>],
    ) -> Vec<QueryId> {
        assert!(
            !self.shards.iter().any(|c| c.collects_deltas()),
            "this engine collects deltas: use process_cycle_with_deltas, or the delta \
             stream silently loses this cycle's changes"
        );
        // Without delta capture the per-core delta buffers stay empty, so
        // the drain into this throwaway vector never allocates.
        let mut discard = Vec::new();
        let mut changed = Vec::new();
        self.run_cycle(object_events, query_events, &mut changed, &mut discard);
        changed
    }

    /// Turn per-cycle delta capture on, on every shard (see
    /// [`ShardedCpmEngine::process_cycle_with_deltas`]).
    pub fn enable_deltas(&mut self) {
        for core in &mut self.shards {
            core.set_collect_deltas(true);
        }
    }

    /// The processing-cycle counter: 0 before any cycle, incremented by
    /// every `process_cycle` call. Every shard advances it identically, so
    /// delta epochs are shard-count-invariant.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.shards[0].epoch()
    }

    /// Run one processing cycle and return the per-query result deltas
    /// alongside the changed-query list. Per-shard delta lists are
    /// concatenated in shard order and canonicalized by query id, so the
    /// batch is **bit-identical** for every shard count (asserted by the
    /// delta-replay suite).
    ///
    /// # Panics
    /// Panics if delta capture was not enabled with
    /// [`ShardedCpmEngine::enable_deltas`].
    pub fn process_cycle_with_deltas(
        &mut self,
        object_events: &[ObjectEvent],
        query_events: &[SpecEvent<S>],
    ) -> CycleDeltas {
        let mut out = CycleDeltas::default();
        self.process_cycle_with_deltas_into(object_events, query_events, &mut out);
        out
    }

    /// [`ShardedCpmEngine::process_cycle_with_deltas`], but refilling a
    /// caller-owned batch: `out`'s two vectors are cleared and reused, so
    /// a steady-state caller that recycles the same [`CycleDeltas`] (the
    /// subscription front end, the benchmark) does not re-grow them. The
    /// deltas themselves are not recycled: a component of more than four
    /// entries owns a heap buffer, freed here and allocated by capture.
    ///
    /// # Panics
    /// Panics if delta capture was not enabled with
    /// [`ShardedCpmEngine::enable_deltas`].
    pub fn process_cycle_with_deltas_into(
        &mut self,
        object_events: &[ObjectEvent],
        query_events: &[SpecEvent<S>],
        out: &mut CycleDeltas,
    ) {
        assert!(
            self.shards.iter().all(|c| c.collects_deltas()),
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
        out.canonicalize(self.epoch());
    }

    /// The shared cycle body behind [`ShardedCpmEngine::process_cycle`]
    /// and [`ShardedCpmEngine::process_cycle_with_deltas`]. Changed ids
    /// are appended to `changed` (left sorted); captured deltas are
    /// appended to `deltas_out` in shard order (nothing is appended
    /// unless capture is on). Both buffers are the caller's, so a
    /// recycling caller does not re-grow them.
    fn run_cycle(
        &mut self,
        object_events: &[ObjectEvent],
        query_events: &[SpecEvent<S>],
        changed: &mut Vec<QueryId>,
        deltas_out: &mut Vec<(QueryId, NeighborDelta)>,
    ) {
        let n = self.shards.len();

        // Phase 0: adaptive re-grid at the cycle boundary.
        self.maybe_auto_regrid(object_events.len(), query_events.len());

        // Phase 1: sequential grid ingest (the only grid mutation).
        self.records.clear();
        self.ingest_metrics.updates_applied +=
            apply_events(&mut self.grid, object_events, &mut self.records);

        let grid = &self.grid;
        let records = self.records.as_slice();

        if n == 1 {
            // Sequential path: no routing, no worker threads; deltas move
            // straight from the core's buffer into the caller's.
            let core = &mut self.shards[0];
            core.begin_cycle(query_events.iter().map(|ev| ev.id()));
            core.apply_records(grid, records, changed);
            core.apply_query_events(grid, query_events, changed);
            core.finish_regrid(changed);
            core.drain_deltas_into(deltas_out);
        } else {
            // Route each query event to the shard that owns its query
            // (scratch buffers persist across cycles to avoid steady-state
            // allocation).
            for buf in &mut self.event_bufs {
                buf.clear();
            }
            for ev in query_events {
                self.event_bufs[shard_of(ev.id(), n)].push(ev.clone());
            }
            let event_bufs = &self.event_bufs;

            // Phase 2: per-shard maintenance over the immutable grid.
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter_mut()
                    .zip(event_bufs)
                    .map(|(core, events)| {
                        scope.spawn(move || run_shard(core, grid, records, events))
                    })
                    .collect();
                // Join in shard order: the merge is deterministic regardless
                // of which worker finishes first.
                for h in handles {
                    let (c, d) = h.join().expect("shard worker panicked");
                    changed.extend(c);
                    deltas_out.extend(d);
                }
            })
        }

        // Canonical order. Shards own disjoint query sets and a query with a
        // pending query event is ignored during update handling, so the
        // concatenation is duplicate-free and the sort is a total order.
        changed.sort_unstable();
    }

    /// Total memory footprint in the paper's memory units (Section 4.1):
    /// grid data plus, per shard, influence entries and query-table state.
    #[must_use]
    pub fn space_units(&self) -> usize {
        self.grid.space_units()
            + self
                .shards
                .iter()
                .map(|s| s.query_space_units())
                .sum::<usize>()
    }

    /// Verify all cross-structure invariants, including that every query
    /// lives on the shard its id hashes to (test helper).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.grid.check_integrity();
        for (i, shard) in self.shards.iter().enumerate() {
            shard.check_invariants(&self.grid);
            for qid in shard.query_ids() {
                assert_eq!(
                    shard_of(qid, self.shards.len()),
                    i,
                    "query {qid} stored on the wrong shard"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PointQuery;

    #[test]
    fn shard_assignment_is_deterministic_and_balanced() {
        for shards in [1usize, 2, 4, 8] {
            let mut counts = vec![0usize; shards];
            for id in 0..10_000u32 {
                let s = shard_of(QueryId(id), shards);
                assert_eq!(s, shard_of(QueryId(id), shards), "not deterministic");
                counts[s] += 1;
            }
            let expected = 10_000 / shards;
            for &c in &counts {
                assert!(
                    c as f64 > expected as f64 * 0.8 && (c as f64) < expected as f64 * 1.2,
                    "imbalanced shards: {counts:?}"
                );
            }
        }
    }

    #[test]
    fn metrics_merge_counts_ingest_once() {
        let mut m = ShardedCpmEngine::<PointQuery>::new(8, 4);
        m.populate([
            (ObjectId(0), Point::new(0.1, 0.1)),
            (ObjectId(1), Point::new(0.9, 0.9)),
        ]);
        for qi in 0..8u32 {
            m.install(QueryId(qi), PointQuery(Point::new(0.5, 0.5)), 1)
                .unwrap();
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
        // One grid update regardless of shard count.
        assert_eq!(metrics.updates_applied, 1);
        // And taking resets every shard: a fresh snapshot is all zeros.
        assert_eq!(m.metrics(), Metrics::default());
    }

    #[test]
    fn query_events_route_to_owning_shards() {
        let mut m = ShardedCpmEngine::<PointQuery>::new(16, 4);
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
        let events: Vec<SpecEvent<PointQuery>> = moves.chain(terminates).collect();
        let changed = m.process_cycle(&[], &events);
        assert_eq!(changed.len(), 10);
        assert_eq!(m.query_count(), 10);
        m.check_invariants();
        assert!(m.terminate(QueryId(0)).is_ok());
        assert_eq!(
            m.terminate(QueryId(1)),
            Err(CpmError::UnknownQuery(QueryId(1)))
        );
    }
}
