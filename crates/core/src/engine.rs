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
//! Per query, the work is Figure 3.8's: a cycle's `(query, record,
//! departure | arrival)` pairs in batch order, then merge-or-recompute
//! and change detection (`Worker::resolve`), or a from-scratch
//! search for a new or moved query. Either touches nothing but that
//! query's own state — it reads the grid and leaves its influence-table
//! writes for later — which is what lets the engine behind
//! [`crate::CpmServer`] run many queries at once, one `Worker` per
//! thread; the phases of a cycle are described in `shard.rs`.
//!
//! This is the only implementation of Figures 3.4–3.9 in the suite: the
//! paper's k-NN workload is the [`PointQuery`] geometry, and the
//! Section 5 variants ([`crate::ann`], [`crate::constrained`],
//! [`crate::range`], [`crate::rnn`]) are further [`QuerySpec`]s, all
//! driven through [`crate::CpmServer`].

use cpm_geom::{ObjectId, Point, QueryId};
use cpm_grid::{
    kernels, CellCoord, Coords, Grid, GridGeom, Metrics, QueryEvent, QueryKind, UpdateRecord,
};

use crate::any::AnyQuerySpec;
use crate::delta::{DeltaScratch, NeighborDelta};
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
/// generators emit) lifted to the server's: a query move is a geometry
/// update.
impl From<QueryEvent> for SpecEvent<AnyQuerySpec> {
    fn from(ev: QueryEvent) -> Self {
        match ev {
            QueryEvent::Install { id, pos, k } => SpecEvent::Install {
                id,
                spec: PointQuery(pos).into(),
                k,
            },
            QueryEvent::Move { id, to } => SpecEvent::Update {
                id,
                spec: PointQuery(to).into(),
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
    /// This query's slot in the engine's query table — the handle its
    /// influence registrations carry.
    pub(crate) slot: u32,
    /// Incomers of the cycle being resolved (cleared per cycle; a field
    /// only so its allocation is reused).
    in_list: InList,
}

impl<S: QuerySpec> SpecQueryState<S> {
    pub(crate) fn new(id: QueryId, slot: u32, spec: S, k: usize, dim: u32) -> Self {
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

/// An influence-table write a worker leaves for the join: register (or,
/// with `false`, unregister) query slot `.1` at cell `.0`.
pub(crate) type InfluenceOp = (CellCoord, u32, bool);

/// Why a state is searched from scratch.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Search {
    /// Query event `i` of the cycle: an install, or an update whose new
    /// geometry the event carries.
    Event(usize),
    /// A re-grid re-registration.
    Rebind,
}

/// The read-only inputs every worker of a resolve step shares: the
/// post-ingest grid and the cycle's grouping.
pub(crate) struct Resolve<'a> {
    pub(crate) grid: &'a Grid,
    pub(crate) records: &'a [UpdateRecord],
    pub(crate) pairs: &'a [u32],
    pub(crate) group_ends: &'a [usize],
    pub(crate) pending: &'a [u64],
    pub(crate) epoch: u64,
    pub(crate) collect_deltas: bool,
}

/// One worker thread's share of a parallel step: its outputs, in the
/// order a single worker would produce them, and its scratch. Workers
/// live in their engine across cycles, so once their buffers have grown
/// a step allocates nothing but the deltas' own spill buffers.
#[derive(Debug, Default)]
pub(crate) struct Worker {
    pub(crate) metrics: Metrics,
    pub(crate) changed: Vec<QueryId>,
    pub(crate) deltas: Vec<(QueryId, NeighborDelta)>,
    /// Influence-table writes, applied at the join: the table is read
    /// only while workers run.
    pub(crate) influence_ops: Vec<InfluenceOp>,
    /// The cycle-start result of the query being resolved, copied from
    /// its `best` list just before the cycle first changes it.
    cycle_start: Vec<Neighbor>,
    /// Scratch for merge resolutions (result ∪ incomers).
    merge_buf: Vec<Neighbor>,
    /// Output buffer of [`QuerySpec::dist_batch`] bucket scans.
    dist_buf: Vec<f64>,
    pub(crate) diff: DeltaScratch,
}

impl Worker {
    /// Search `st` from scratch for `search`: query event `i` of `events`
    /// (an install, or an update to the event's geometry) or a re-grid
    /// re-registration.
    pub(crate) fn search<S: QuerySpec>(
        &mut self,
        grid: &Grid,
        epoch: u64,
        collect_deltas: bool,
        search: Search,
        events: &[SpecEvent<S>],
        st: &mut SpecQueryState<S>,
    ) {
        let Search::Event(i) = search else {
            // The table was reset: nothing to unregister. The search finds
            // the list the query held, a function of the positions alone.
            st.influence_len = 0;
            self.compute_from_scratch(grid, st);
            self.metrics.regrid_queries_recomputed += 1;
            return;
        };
        let update = match &events[i] {
            SpecEvent::Update { spec, .. } => {
                self.unregister(st);
                if collect_deltas {
                    self.cycle_start.clear();
                    self.cycle_start.extend_from_slice(st.best.neighbors());
                }
                st.spec.clone_from(spec);
                true
            }
            SpecEvent::Install { .. } => false,
            SpecEvent::Terminate { .. } => unreachable!("terminates run serially"),
        };
        self.compute_from_scratch(grid, st);
        if collect_deltas {
            let old: &[Neighbor] = if update { &self.cycle_start } else { &[] };
            let delta = NeighborDelta::diff(epoch, old, st.best.neighbors(), &mut self.diff);
            if !delta.is_empty() {
                self.deltas.push((st.id, delta));
            }
        }
        self.changed.push(st.id);
    }

    /// Drop `st`'s influence registrations (a moving query is a new one,
    /// Section 3.3).
    pub(crate) fn unregister<S>(&mut self, st: &mut SpecQueryState<S>) {
        let registered = st.visit_list[..st.influence_len].iter();
        self.influence_ops
            .extend(registered.map(|&(cell, _)| (cell, st.slot, false)));
        st.influence_len = 0;
    }

    // ---- search ----

    pub(crate) fn compute_from_scratch<S: QuerySpec>(
        &mut self,
        grid: &Grid,
        st: &mut SpecQueryState<S>,
    ) {
        debug_assert_eq!(st.influence_len, 0, "stale influence registrations");
        let metrics = &mut self.metrics;
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

        drain_heap(grid, st, metrics, &mut self.dist_buf);
        metrics.computations += 1;
        metrics.attribute_since(st.spec.kind(), counters_before);
        sync_influence(&mut self.influence_ops, st);
    }

    fn recompute<S: QuerySpec>(&mut self, grid: &Grid, st: &mut SpecQueryState<S>) {
        let metrics = &mut self.metrics;
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
            st.spec.dist_batch(grid.coords(), oids, &mut self.dist_buf);
            metrics.objects_processed += oids.len() as u64;
            for (&oid, &d) in oids.iter().zip(&self.dist_buf) {
                if d.is_finite() {
                    st.best.offer(oid, d);
                }
            }
        }
        if exhausted {
            drain_heap(grid, st, metrics, &mut self.dist_buf);
        }
        metrics.recomputations += 1;
        metrics.attribute_since(st.spec.kind(), counters_before);
        sync_influence(&mut self.influence_ops, st);
    }

    // ---- update handling (Figure 3.8, aggregate distances) ----

    /// One query's share of a cycle: its departures and arrivals
    /// (`events`, packed as in the engine's grouped pairs) in batch
    /// order, then merge-or-recompute resolution and change detection.
    /// A batch holds one event per object, so an id arrives at most once
    /// and a departure never finds its id among the incomers.
    pub(crate) fn resolve<S: QuerySpec>(
        &mut self,
        step: &Resolve<'_>,
        st: &mut SpecQueryState<S>,
        events: &[u32],
    ) {
        let qid = st.id;
        // Every object outside the result and this cycle's pairs sorts
        // after the cycle-start k-th entry under `(dist, id)`: an arrival
        // or a moving member qualifies iff it sorts at or before it.
        let kth = st.best.is_full().then(|| st.best.neighbors()[st.k() - 1]);
        let qualifies =
            |d: f64, id| d.is_finite() && kth.is_none_or(|last| (d, id) <= (last.dist, last.id));
        let mut out_count = 0usize;
        // A result entry was mutated in place by a departure.
        let mut dirty = false;
        st.in_list.clear();

        for &ev in events {
            let rec = &step.records[(ev >> 1) as usize];
            let id = rec.id;
            if ev & 1 == 1 {
                let d = st
                    .spec
                    .dist(rec.new_pos.expect("arrivals carry a position"));
                if qualifies(d, id) && !st.best.contains(id) {
                    st.in_list.insert(id, d);
                }
                continue;
            }
            if st.best.contains(id) {
                // The delta is taken against the cycle-start list: keep a
                // copy from just before the first in-place mutation (it
                // stays hot for the whole of this query's resolution).
                if step.collect_deltas && !dirty {
                    self.cycle_start.clear();
                    self.cycle_start.extend_from_slice(st.best.neighbors());
                }
                // The arrival test: with an unfull result any finite
                // distance stays, and a member moving somewhere it can
                // never qualify (outside a constraint/range region,
                // dist = +∞) is outgoing, not kept at rank ∞.
                let still_in = rec
                    .new_pos
                    .map(|p| st.spec.dist(p))
                    .filter(|&d| qualifies(d, id));
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

        let recompute = st.in_list.len() < out_count;
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
            self.recompute(step.grid, st);
        } else {
            if resolved {
                self.merge_buf.clear();
                self.merge_buf.extend_from_slice(st.best.neighbors());
                self.merge_buf.extend_from_slice(st.in_list.entries());
                st.best.rebuild_from(&mut self.merge_buf);
                self.metrics.merge_resolutions += 1;
                self.metrics.by_kind[st.spec.kind() as usize].merge_resolutions += 1;
            }
            sync_influence(&mut self.influence_ops, st);
        }

        // Change detection. A `dirty` query changed whatever the lists
        // say: a result that shrank and refilled, or an entry that moved
        // and came back to the same distance bits, still counts. Otherwise
        // an empty delta means bitwise-equal lists (distances are never
        // NaN or -0.0, so bit equality and `==` agree), which keeps
        // `changed` identical with capture on or off.
        if step.collect_deltas {
            let delta = NeighborDelta::diff(
                step.epoch,
                &self.cycle_start,
                st.best.neighbors(),
                &mut self.diff,
            );
            if dirty || !delta.is_empty() {
                self.changed.push(qid);
            }
            if !delta.is_empty() {
                self.deltas.push((qid, delta));
            }
        } else if dirty || self.cycle_start != st.best.neighbors() {
            self.changed.push(qid);
        }
    }
}

fn drain_heap<S: QuerySpec>(
    grid: &Grid,
    st: &mut SpecQueryState<S>,
    metrics: &mut Metrics,
    dist_buf: &mut Vec<f64>,
) {
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
                st.spec.dist_batch(grid.coords(), oids, dist_buf);
                metrics.objects_processed += oids.len() as u64;
                for (&oid, &d) in oids.iter().zip(dist_buf.iter()) {
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

/// Bring `st`'s influence registrations to the prefix of its visit list
/// within `best_dist`, as writes for the join.
fn sync_influence<S>(ops: &mut Vec<InfluenceOp>, st: &mut SpecQueryState<S>) {
    let bd = st.best.best_dist();
    let new_len = if bd.is_finite() {
        st.visit_list.partition_point(|&(_, key)| key <= bd)
    } else {
        st.visit_list.len()
    };
    for i in st.influence_len..new_len {
        ops.push((st.visit_list[i].0, st.slot, true));
    }
    for i in new_len..st.influence_len {
        ops.push((st.visit_list[i].0, st.slot, false));
    }
    st.influence_len = new_len;
}

#[cfg(test)]
mod tests {
    //! The worked examples of Section 3 (Figures 3.2, 3.5, 3.7), driven
    //! through the `T = 1` engine over plain point queries, and the
    //! scalar-vs-batched kernel equivalence.

    use super::*;
    use crate::partition::{Direction, Pinwheel};
    use crate::shard::CpmEngine;
    use crate::CycleDeltas;
    use cpm_grid::ObjectEvent;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::num::NonZeroUsize;

    type Engine = CpmEngine<PointQuery>;
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
        let mut m = Engine::new(8, NonZeroUsize::MIN);
        m.populate([
            (ObjectId(1), pt(3.3, 3.5)), // p1
            (ObjectId(2), pt(2.9, 4.5)), // p2 (the NN)
            (ObjectId(3), pt(2.2, 6.5)), // p3, farther
            (ObjectId(4), pt(5.5, 6.6)), // p4, farther
        ]);
        m.install(Q, PointQuery(pt(4.2, 4.9)), 1);
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

    /// Ties are part of the contract: the result is the k smallest under
    /// `(dist, id)` on every path. Object 30 arrives at exactly the
    /// distance of the departing NN 10, but object 20, which did not
    /// move, sits there too and has the smaller id, so the merge must not
    /// take 30. The maintained result then equals an engine built from
    /// the final positions and survives a re-grid unchanged.
    #[test]
    fn an_exact_tie_resolves_by_id_on_every_path() {
        let origin = Point::new(0.0, 0.0);
        let appear = |id, pos| ObjectEvent::Appear {
            id: ObjectId(id),
            pos,
        };
        let mut m = Engine::new(8, NonZeroUsize::MIN);
        m.enable_deltas();
        m.populate([(ObjectId(10), origin)]);
        m.install(Q, PointQuery(origin), 1);
        let mut out = CycleDeltas::default();
        m.process_cycle_with_deltas_into(&[appear(20, origin)], &[], &mut out);
        assert_eq!(nn(&m), ObjectId(10));
        let leave = ObjectEvent::Disappear { id: ObjectId(10) };
        m.process_cycle_with_deltas_into(&[leave, appear(30, origin)], &[], &mut out);

        let mut rebuilt = Engine::new(8, NonZeroUsize::MIN);
        rebuilt.populate(m.grid().iter_objects());
        rebuilt.install(Q, PointQuery(origin), 1);
        assert_eq!(m.result(Q), rebuilt.result(Q), "maintained vs rebuilt");
        assert_eq!(nn(&m), ObjectId(20));

        let before = m.result(Q).unwrap().to_vec();
        m.regrid_to(16).unwrap();
        assert_eq!(m.result(Q).unwrap(), before, "a re-grid moved the result");
        m.process_cycle_with_deltas_into(&[], &[], &mut out);
        assert!(
            out.changed.is_empty(),
            "changed after a re-grid: {:?}",
            out.changed
        );
        assert!(out.deltas.is_empty(), "deltas after a re-grid");
        m.check_invariants();
    }

    #[test]
    fn k_larger_than_population_and_empty_grid() {
        let mut m = Engine::new(16, NonZeroUsize::MIN);
        assert!(m.install(Q, PointQuery(Point::new(0.5, 0.5)), 3).is_empty());
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

    // ---- scalar vs batched distance kernel ----
    //
    // The scalar lane runs a wrapper spec that forwards every `QuerySpec`
    // method but deliberately does *not* override `dist_batch`, so it
    // runs the trait's default per-object fallback — exactly the
    // pre-kernel code path. The batched lane is the stock `PointQuery`,
    // whose `dist_batch` is the kernel: same result bits, same changed
    // lists, same delta streams, across thread counts.

    /// [`PointQuery`] with the batched-kernel override masked off: the
    /// default `dist_batch` (scalar loop over `dist`) runs instead.
    #[derive(Debug, Clone, Copy)]
    struct ScalarPoint(PointQuery);

    impl QuerySpec for ScalarPoint {
        fn dist(&self, p: Point) -> f64 {
            self.0.dist(p)
        }
        fn base_block(&self, geom: GridGeom) -> (CellCoord, CellCoord) {
            self.0.base_block(geom)
        }
        fn cell_key(&self, geom: GridGeom, cell: CellCoord) -> f64 {
            self.0.cell_key(geom, cell)
        }
        fn strip_key(&self, pw: &Pinwheel, dir: Direction, lvl: u32) -> f64 {
            self.0.strip_key(pw, dir, lvl)
        }
        fn strip_increment(&self, delta: f64) -> f64 {
            self.0.strip_increment(delta)
        }
        // No `dist_batch` override — that is the whole point.
    }

    fn churn(rng: &mut StdRng, live: &mut Vec<u32>, next: &mut u32) -> Vec<ObjectEvent> {
        let mut events = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..rng.gen_range(0..16) {
            match rng.gen_range(0..8) {
                0 if live.len() > 8 => {
                    let id = live.swap_remove(rng.gen_range(0..live.len()));
                    if seen.insert(id) {
                        events.push(ObjectEvent::Disappear { id: ObjectId(id) });
                    } else {
                        live.push(id);
                    }
                }
                1 => {
                    live.push(*next);
                    seen.insert(*next);
                    events.push(ObjectEvent::Appear {
                        id: ObjectId(*next),
                        pos: Point::new(rng.gen(), rng.gen()),
                    });
                    *next += 1;
                }
                _ if !live.is_empty() => {
                    let id = live[rng.gen_range(0..live.len())];
                    if seen.insert(id) {
                        events.push(ObjectEvent::Move {
                            id: ObjectId(id),
                            to: Point::new(rng.gen(), rng.gen()),
                        });
                    }
                }
                _ => {}
            }
        }
        events
    }

    const N_OBJ: u32 = 120;
    const N_QUERIES: u32 = 8;
    const CYCLES: usize = 25;

    fn objects(rng: &mut StdRng) -> Vec<(ObjectId, Point)> {
        (0..N_OBJ)
            .map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen())))
            .collect()
    }

    /// Scalar-vs-batched equivalence: one churn stream through a scalar-lane engine and batched-lane engines
    /// at T ∈ {1, 4}: changed lists and delta streams must match the scalar
    /// reference exactly, results bit-for-bit.
    #[test]
    fn batched_kernel_is_observationally_identical_to_scalar() {
        let mut rng = StdRng::seed_from_u64(0xD157);
        let objs = objects(&mut rng);

        let mut scalar = CpmEngine::<ScalarPoint>::new(32, NonZeroUsize::MIN);
        scalar.enable_deltas();
        scalar.populate(objs.iter().copied());

        let mut batched = Vec::new();
        for s in [1usize, 4] {
            let mut engine = CpmEngine::<PointQuery>::new(32, NonZeroUsize::new(s).unwrap());
            engine.enable_deltas();
            engine.populate(objs.iter().copied());
            batched.push((s, engine));
        }

        let mut q_points = Vec::new();
        for qi in 0..N_QUERIES {
            let p = Point::new(rng.gen(), rng.gen());
            let k = 1 + qi as usize % 5;
            scalar.install(QueryId(qi), ScalarPoint(PointQuery(p)), k);
            for (_, engine) in batched.iter_mut() {
                engine.install(QueryId(qi), PointQuery(p), k);
            }
            q_points.push(p);
        }

        let mut live: Vec<u32> = (0..N_OBJ).collect();
        let mut next = N_OBJ;
        for cycle in 0..CYCLES {
            let events = churn(&mut rng, &mut live, &mut next);
            // Moving queries most cycles, as terminate-free Update events.
            let moved: Option<(u32, Point)> = rng.gen_bool(0.6).then(|| {
                (
                    rng.gen_range(0..N_QUERIES),
                    Point::new(rng.gen(), rng.gen()),
                )
            });
            let scalar_qev: Vec<SpecEvent<ScalarPoint>> = moved
                .iter()
                .map(|&(qi, p)| SpecEvent::Update {
                    id: QueryId(qi),
                    spec: ScalarPoint(PointQuery(p)),
                })
                .collect();
            let batched_qev: Vec<SpecEvent<PointQuery>> = moved
                .iter()
                .map(|&(qi, p)| SpecEvent::Update {
                    id: QueryId(qi),
                    spec: PointQuery(p),
                })
                .collect();

            let (mut want, mut got) = (CycleDeltas::default(), CycleDeltas::default());
            scalar.process_cycle_with_deltas_into(&events, &scalar_qev, &mut want);
            for (s, engine) in batched.iter_mut() {
                engine.process_cycle_with_deltas_into(&events, &batched_qev, &mut got);
                assert_eq!(
                    got.changed, want.changed,
                    "changed lists diverged at cycle {cycle} (S={s})"
                );
                assert_eq!(got, want, "delta streams diverged at cycle {cycle} (S={s})");
                for qi in 0..N_QUERIES {
                    let a = scalar.result(QueryId(qi)).unwrap();
                    let b = engine.result(QueryId(qi)).unwrap();
                    assert_eq!(a.len(), b.len(), "cycle {cycle} q{qi} (S={s})");
                    for (x, y) in a.iter().zip(b) {
                        assert_eq!(x.id, y.id, "cycle {cycle} q{qi} (S={s})");
                        assert_eq!(
                            x.dist.to_bits(),
                            y.dist.to_bits(),
                            "cycle {cycle} q{qi} (S={s}): result bits diverged"
                        );
                    }
                }
                engine.check_invariants();
            }
            scalar.check_invariants();
        }
    }
}
