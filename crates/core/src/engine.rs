//! The CPM engine: conceptual-partitioning monitoring over any query
//! geometry.
//!
//! Section 5 argues that "CPM provides a general methodology that can be
//! applied to several types of spatial queries". This module is that claim
//! made executable: the search/maintenance machinery of Section 3 —
//! best-first traversal of cells and conceptual rectangles, visit list,
//! search heap, influence lists, batched in/out update handling — written
//! once, over the [`QuerySpec`] each query's [`AnyQuerySpec`] dispatches
//! to, which supplies:
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
//! query's own state — it reads the grid, and its influence registrations
//! are its visit-list prefix, which the engine lists when it next routes
//! — which is what lets the engine behind
//! [`crate::CpmServer`] run many queries at once, one `Worker` per
//! thread; the phases of a cycle are described in `shard.rs`.
//!
//! This is the only implementation of Figures 3.4–3.9 in the suite: the
//! paper's k-NN workload is the [`PointQuery`] geometry, and the
//! Section 5 variants ([`crate::ann`], [`crate::constrained`],
//! [`crate::range`], [`crate::rnn`]) are further [`QuerySpec`]s, all
//! driven through [`crate::CpmServer`].

use cpm_geom::{Point, QueryId};
use cpm_grid::{CellCoord, Grid, GridGeom, Metrics, QueryEvent, QueryKind, UpdateRecord};

use crate::any::AnyQuerySpec;
use crate::delta::{DeltaScratch, NeighborDelta};
use crate::heap::{HeapEntry, SearchHeap};
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

/// Query events understood by the engine; the server and the engine
/// carry them over [`AnyQuerySpec`].
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

impl SpecEvent<AnyQuerySpec> {
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
/// Figure 3.3a, with the query point generalized to a query geometry.
///
/// Figure 3.8's `q.in_list` is not part of it: a query's incomers live
/// only while its worker resolves it, in that worker's scratch.
#[derive(Debug, Clone)]
pub struct SpecQueryState {
    /// Query identifier.
    pub id: QueryId,
    /// Query geometry.
    pub spec: AnyQuerySpec,
    /// Current result, ascending by (aggregate) distance.
    pub best: NeighborList,
    /// Cells processed during search, ascending by key; superset of the
    /// influence region.
    pub visit_list: Vec<(CellCoord, f64)>,
    /// Prefix of `visit_list` registered in the influence table: the
    /// cells keyed within `best_dist`, which the engine lists this query
    /// at when it rebuilds the table.
    pub influence_len: usize,
    /// Left-over search frontier.
    pub heap: SearchHeap,
    /// Pinwheel around the base block.
    pub pinwheel: Pinwheel,
    /// This query's slot in the engine's query table — the handle its
    /// influence registrations carry.
    pub(crate) slot: u32,
}

impl SpecQueryState {
    pub(crate) fn new(id: QueryId, slot: u32, spec: AnyQuerySpec, k: usize, dim: u32) -> Self {
        Self {
            id,
            slot,
            spec,
            best: NeighborList::new(k),
            visit_list: Vec::new(),
            influence_len: 0,
            heap: SearchHeap::new(),
            pinwheel: Pinwheel::around_cell(CellCoord::new(0, 0), dim),
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
/// order a single worker would produce them, and its scratch — the
/// cycle-start copy, the in-list and the diff's id table, each reused
/// by every query the worker handles.
/// Workers live in their engine across cycles, so once their buffers
/// have grown a step allocates nothing but the deltas' own spill buffers.
#[derive(Debug, Default)]
pub(crate) struct Worker {
    pub(crate) metrics: Metrics,
    pub(crate) changed: Vec<QueryId>,
    pub(crate) deltas: Vec<(QueryId, NeighborDelta)>,
    /// The cycle-start result of the query being resolved, copied from
    /// its `best` list just before the cycle first changes it.
    cycle_start: Vec<Neighbor>,
    /// `q.in_list` of Figure 3.8 for the query being resolved: its
    /// qualifying incomers in batch order, uncapped and unsorted. The
    /// merge offers them to the surviving result.
    in_list: Vec<Neighbor>,
    pub(crate) diff: DeltaScratch,
}

impl Worker {
    /// Search `st` from scratch for `search`: query event `i` of `events`
    /// (an install, or an update to the event's geometry) or a re-grid
    /// re-registration.
    pub(crate) fn search(
        &mut self,
        grid: &Grid,
        epoch: u64,
        collect_deltas: bool,
        search: Search,
        events: &[SpecEvent<AnyQuerySpec>],
        st: &mut SpecQueryState,
    ) {
        let Search::Event(i) = search else {
            // The search finds the list the query held, a function of the
            // positions alone.
            self.compute_from_scratch(grid, st);
            self.metrics.regrid_queries_recomputed += 1;
            return;
        };
        let update = match &events[i] {
            SpecEvent::Update { spec, .. } => {
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

    // ---- search ----

    /// Search `st` from scratch, a new query as far as its book-keeping
    /// goes (a moving query is a new one, Section 3.3).
    pub(crate) fn compute_from_scratch(&mut self, grid: &Grid, st: &mut SpecQueryState) {
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

        drain_heap(grid, st, metrics);
        metrics.computations += 1;
        metrics.attribute_since(st.spec.kind(), counters_before);
        sync_influence(st);
    }

    fn recompute(&mut self, grid: &Grid, st: &mut SpecQueryState) {
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
            scan_cell(grid, st, metrics, cell);
        }
        if exhausted {
            drain_heap(grid, st, metrics);
        }
        metrics.recomputations += 1;
        metrics.attribute_since(st.spec.kind(), counters_before);
        sync_influence(st);
    }

    // ---- update handling (Figure 3.8, aggregate distances) ----

    /// One query's share of a cycle: its departures and arrivals
    /// (`events`, packed as in the engine's grouped pairs) in batch
    /// order, then merge-or-recompute resolution and change detection.
    /// A batch holds one event per object, so an id arrives at most once
    /// and a departure never finds its id among the incomers.
    pub(crate) fn resolve(&mut self, step: &Resolve<'_>, st: &mut SpecQueryState, events: &[u32]) {
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
        self.in_list.clear();

        for &ev in events {
            let rec = &step.records[(ev >> 1) as usize];
            let id = rec.id;
            if ev & 1 == 1 {
                let d = st
                    .spec
                    .dist(rec.new_pos.expect("arrivals carry a position"));
                if qualifies(d, id) && !st.best.contains(id) {
                    self.in_list.push(Neighbor { id, dist: d });
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

        // Figure 3.8's test with the in-list uncapped: the result holds
        // at most k, so `min(|in|, k) < out ⇔ |in| < out`.
        let recompute = self.in_list.len() < out_count;
        let resolved = recompute || out_count > 0 || !self.in_list.is_empty();
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
                // The merge (Figure 3.8 lines 19–20): the incomers are
                // disjoint from the result, since an arrival is never a
                // member, so offering each keeps the k best of the union.
                for n in &self.in_list {
                    st.best.offer(n.id, n.dist);
                }
                self.metrics.merge_resolutions += 1;
                self.metrics.by_kind[st.spec.kind() as usize].merge_resolutions += 1;
            }
            sync_influence(st);
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

/// Visit `cell` (Figures 3.4 and 3.6): offer every object of its run
/// to `best_NN` as its distance is computed. An infinite distance (an
/// object a constraint or range region excludes) never enters.
fn scan_cell(grid: &Grid, st: &mut SpecQueryState, metrics: &mut Metrics, cell: CellCoord) {
    let run = grid.cell_run(cell);
    metrics.cell_accesses += 1;
    metrics.objects_processed += run.len() as u64;
    for (oid, p) in run.iter() {
        let d = st.spec.dist(p);
        if d.is_finite() {
            st.best.offer(oid, d);
        }
    }
}

fn drain_heap(grid: &Grid, st: &mut SpecQueryState, metrics: &mut Metrics) {
    let increment = st.spec.strip_increment(grid.delta());
    while let Some(key) = st.heap.peek_key() {
        if key > st.best.best_dist() {
            break;
        }
        let (key, entry) = st.heap.pop().expect("peeked entry");
        metrics.heap_pops += 1;
        match entry {
            HeapEntry::Cell(cell) => {
                scan_cell(grid, st, metrics, cell);
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
/// within `best_dist`: every cell of the visit list while the result is
/// unfull.
fn sync_influence(st: &mut SpecQueryState) {
    st.influence_len = influence_prefix(&st.visit_list, st.best.best_dist());
}

/// The length of the prefix of `visit_list` with keys within `best_dist`.
pub(crate) fn influence_prefix(visit_list: &[(CellCoord, f64)], best_dist: f64) -> usize {
    if best_dist.is_finite() {
        visit_list.partition_point(|&(_, key)| key <= best_dist)
    } else {
        visit_list.len()
    }
}

#[cfg(test)]
mod tests {
    //! The worked examples of Section 3 (Figures 3.2, 3.5, 3.7), driven
    //! through a `T = 1` server over plain point queries, and the cell
    //! scans' results against brute force, bit for bit.

    use super::*;
    use crate::{CpmServer, CpmServerBuilder, CycleDeltas};
    use cpm_geom::ObjectId;
    use cpm_grid::ObjectEvent;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::num::NonZeroUsize;

    const Q: QueryId = QueryId(0);
    /// δ of the 8×8 grid the figures are drawn on.
    const D: f64 = 1.0 / 8.0;

    fn server(dim: u32) -> CpmServer {
        CpmServerBuilder::new(dim)
            .threads(NonZeroUsize::MIN)
            .build()
    }

    fn pt(x: f64, y: f64) -> Point {
        Point::new(x * D, y * D)
    }

    fn mv(id: u32, x: f64, y: f64) -> ObjectEvent {
        ObjectEvent::Move {
            id: ObjectId(id),
            to: pt(x, y),
        }
    }

    fn move_query(x: f64, y: f64) -> SpecEvent<AnyQuerySpec> {
        SpecEvent::Update {
            id: Q,
            spec: PointQuery(pt(x, y)).into(),
        }
    }

    /// The Figure 3.2 layout (coordinates in units of δ): q = (4.2, 4.9)
    /// in cell c4,4; p1 ∈ c3,3; p2 ∈ c2,4 is the NN.
    fn fig_3_2() -> CpmServer {
        fig_3_2_with_k(1)
    }

    /// [`fig_3_2`] with the query monitoring its `k` nearest.
    fn fig_3_2_with_k(k: usize) -> CpmServer {
        let mut m = server(8);
        m.populate([
            (ObjectId(1), pt(3.3, 3.5)), // p1
            (ObjectId(2), pt(2.9, 4.5)), // p2 (the NN)
            (ObjectId(3), pt(2.2, 6.5)), // p3, farther
            (ObjectId(4), pt(5.5, 6.6)), // p4, farther
        ])
        .unwrap();
        m.install_spec(Q, PointQuery(pt(4.2, 4.9)), k).unwrap();
        m.take_metrics();
        m
    }

    fn cycle(m: &mut CpmServer, objects: &[ObjectEvent]) -> Vec<QueryId> {
        m.process_cycle(objects, &[]).unwrap()
    }

    fn nn(m: &CpmServer) -> ObjectId {
        m.result(Q).unwrap()[0].id
    }

    fn assert_matches_oracle(m: &CpmServer) {
        let st = m.query_state(Q).unwrap();
        let mut expect: Vec<f64> = m
            .grid()
            .iter_objects()
            .map(|(_, p)| st.spec.dist(p))
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
        assert!(cycle(&mut m, &[mv(4, 5.5, 3.4)]).is_empty());
        assert_eq!(m.metrics().recomputations, 0);
        assert_eq!(nn(&m), ObjectId(2));
        m.check_invariants();
    }

    #[test]
    fn outgoing_nn_triggers_recomputation_fig_3_5b() {
        let mut m = fig_3_2();
        // First p4 comes nearer (as in Figure 3.5a): outside best_dist but
        // closer to q than p1, so it becomes the NN once p2 departs.
        cycle(&mut m, &[mv(4, 4.6, 3.5)]);
        m.take_metrics();
        // Then the current NN p2 moves far away: q is affected and the
        // re-computation module must find p4 as the new NN.
        assert_eq!(cycle(&mut m, &[mv(2, 0.5, 6.5)]), vec![Q]);
        assert_eq!(m.metrics().recomputations, 1);
        assert_eq!(nn(&m), ObjectId(4));
        assert_matches_oracle(&m);
    }

    #[test]
    fn incomer_covers_outgoer_without_recomputation_fig_3_7() {
        let mut m = fig_3_2();
        // p2 (the NN) leaves; p3 moves closer than best_dist in the same
        // batch. CPM must resolve this by merging, without grid search.
        let changed = cycle(&mut m, &[mv(2, 0.5, 6.5), mv(3, 3.6, 4.5)]);
        assert_eq!(changed, vec![Q]);
        assert_eq!(m.metrics().recomputations, 0);
        assert_eq!(m.metrics().merge_resolutions, 1);
        assert_eq!(nn(&m), ObjectId(3));
        assert_matches_oracle(&m);
    }

    /// Figure 3.8's merge-or-recompute test with more than k incomers:
    /// the in-list is not capped at k, and `recompute ⇔ |in| < |out|`
    /// decides alike either way because the result holds at most k. With
    /// k = 2 (p2 and p1), one outgoing member and four qualifying arrivals
    /// merge; then two outgoing members and one qualifying arrival
    /// recompute.
    #[test]
    fn merge_or_recompute_counts_every_incomer() {
        let mut m = fig_3_2_with_k(2);
        assert_eq!(m.result(Q).unwrap().len(), 2);
        let appear = |id, x, y| ObjectEvent::Appear {
            id: ObjectId(id),
            pos: pt(x, y),
        };
        let batch = [
            mv(2, 0.5, 0.5),
            appear(5, 4.4, 4.9),
            appear(6, 4.2, 5.2),
            appear(7, 3.8, 4.9),
            appear(8, 4.2, 4.4),
        ];
        assert_eq!(cycle(&mut m, &batch), vec![Q]);
        let metrics = m.take_metrics();
        assert_eq!(metrics.merge_resolutions, 1);
        assert_eq!(metrics.recomputations, 0);
        let ids: Vec<ObjectId> = m.result(Q).unwrap().iter().map(|n| n.id).collect();
        assert_eq!(ids, [ObjectId(5), ObjectId(6)]);
        assert_matches_oracle(&m);

        let batch = [
            ObjectEvent::Disappear { id: ObjectId(5) },
            ObjectEvent::Disappear { id: ObjectId(6) },
            mv(3, 4.2, 5.0),
        ];
        assert_eq!(cycle(&mut m, &batch), vec![Q]);
        let metrics = m.take_metrics();
        assert_eq!(metrics.merge_resolutions, 0);
        assert_eq!(metrics.recomputations, 1);
        let ids: Vec<ObjectId> = m.result(Q).unwrap().iter().map(|n| n.id).collect();
        assert_eq!(ids, [ObjectId(3), ObjectId(7)]);
        assert_matches_oracle(&m);
    }

    #[test]
    fn offline_nn_is_treated_as_outgoing() {
        let mut m = fig_3_2();
        let changed = cycle(&mut m, &[ObjectEvent::Disappear { id: ObjectId(2) }]);
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
        assert_eq!(cycle(&mut m, &[appear]), vec![Q]);
        assert_eq!(nn(&m), ObjectId(9));
        assert_matches_oracle(&m);
    }

    #[test]
    fn query_move_recomputes_from_scratch() {
        let mut m = fig_3_2();
        let changed = m.process_cycle(&[], &[move_query(5.4, 6.4)]).unwrap();
        assert_eq!(changed, vec![Q]);
        assert_eq!(m.metrics().computations, 1);
        assert_eq!(nn(&m), ObjectId(4));
        assert_matches_oracle(&m);
    }

    #[test]
    fn moving_query_is_ignored_during_object_updates() {
        let mut m = fig_3_2();
        // The NN departs *and* the query moves in the same cycle; the
        // object update must not trigger work for the obsolete query.
        let changed = m
            .process_cycle(&[mv(2, 0.5, 6.5)], &[move_query(5.4, 6.4)])
            .unwrap();
        assert_eq!(changed, vec![Q]);
        assert_eq!(m.metrics().recomputations, 0, "obsolete query recomputed");
        assert_eq!(m.metrics().computations, 1);
        assert_matches_oracle(&m);
    }

    /// Ties are part of the contract: the result is the k smallest under
    /// `(dist, id)` on every path. Object 30 arrives at exactly the
    /// distance of the departing NN 10, but object 20, which did not
    /// move, sits there too and has the smaller id, so the merge must not
    /// take 30. The maintained result then equals a server built from
    /// the final positions and survives a re-grid unchanged.
    #[test]
    fn an_exact_tie_resolves_by_id_on_every_path() {
        let origin = Point::new(0.0, 0.0);
        let appear = |id, pos| ObjectEvent::Appear {
            id: ObjectId(id),
            pos,
        };
        let mut m = CpmServerBuilder::new(8)
            .threads(NonZeroUsize::MIN)
            .deltas(true)
            .build();
        m.populate([(ObjectId(10), origin)]).unwrap();
        m.install_spec(Q, PointQuery(origin), 1).unwrap();
        let mut out = CycleDeltas::default();
        m.process_cycle_with_deltas_into(&[appear(20, origin)], &[], &mut out)
            .unwrap();
        assert_eq!(nn(&m), ObjectId(10));
        let leave = ObjectEvent::Disappear { id: ObjectId(10) };
        m.process_cycle_with_deltas_into(&[leave, appear(30, origin)], &[], &mut out)
            .unwrap();

        let mut rebuilt = server(8);
        rebuilt.populate(m.grid().iter_objects()).unwrap();
        rebuilt.install_spec(Q, PointQuery(origin), 1).unwrap();
        assert_eq!(m.result(Q), rebuilt.result(Q), "maintained vs rebuilt");
        assert_eq!(nn(&m), ObjectId(20));

        let before = m.result(Q).unwrap().to_vec();
        m.regrid_to(16).unwrap();
        assert_eq!(m.result(Q).unwrap(), before, "a re-grid moved the result");
        m.process_cycle_with_deltas_into(&[], &[], &mut out)
            .unwrap();
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
        let mut m = server(16);
        let first = m.install_spec(Q, PointQuery(Point::new(0.5, 0.5)), 3);
        assert!(first.unwrap().is_empty());
        m.check_invariants();
        // Objects appear one by one and must join the (unfull) result.
        for (i, x) in [0.1, 0.9, 0.51].into_iter().enumerate() {
            let appear = ObjectEvent::Appear {
                id: ObjectId(i as u32),
                pos: Point::new(x, x),
            };
            assert_eq!(cycle(&mut m, &[appear]), vec![Q]);
            assert_eq!(m.result(Q).unwrap().len(), i + 1);
            assert_eq!(m.query_state(Q).unwrap().best_dist().is_infinite(), i < 2);
            assert_matches_oracle(&m);
        }
        assert_eq!(nn(&m), ObjectId(2));
    }

    // ---- cell scans vs brute force ----

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

    /// `(id, dist bits)` of every entry: equality down to the bit pattern.
    fn bits(list: &[Neighbor]) -> Vec<(ObjectId, u64)> {
        list.iter().map(|n| (n.id, n.dist.to_bits())).collect()
    }

    /// One churn stream through servers at T ∈ {1, 4}. Every cycle,
    /// every result is bit for bit the brute-force reference —
    /// [`QuerySpec::dist`] of every live object offered into a
    /// [`NeighborList`], the k smallest under `(dist, id)` — and the
    /// changed lists and deltas at T = 4 are those at T = 1.
    #[test]
    fn cell_scans_are_bit_identical_to_brute_force() {
        let mut rng = StdRng::seed_from_u64(0xD157);
        let objs: Vec<(ObjectId, Point)> = (0..N_OBJ)
            .map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen())))
            .collect();
        let mut servers = [1usize, 4].map(|threads| {
            let mut s = CpmServerBuilder::new(32)
                .threads(NonZeroUsize::new(threads).unwrap())
                .deltas(true)
                .build();
            s.populate(objs.iter().copied()).unwrap();
            s
        });

        let mut specs = Vec::new();
        for qi in 0..N_QUERIES {
            let spec = PointQuery(Point::new(rng.gen(), rng.gen()));
            let k = 1 + qi as usize % 5;
            for s in &mut servers {
                s.install_spec(QueryId(qi), spec, k).unwrap();
            }
            specs.push((spec, k));
        }

        let mut live: Vec<u32> = (0..N_OBJ).collect();
        let mut next = N_OBJ;
        for cycle in 0..CYCLES {
            let events = churn(&mut rng, &mut live, &mut next);
            // Moving queries most cycles, as terminate-free Update events.
            let mut qev = Vec::new();
            if rng.gen_bool(0.6) {
                let qi = rng.gen_range(0..N_QUERIES);
                let spec = PointQuery(Point::new(rng.gen(), rng.gen()));
                specs[qi as usize].0 = spec;
                qev.push(SpecEvent::Update {
                    id: QueryId(qi),
                    spec: spec.into(),
                });
            }

            let [one, four] = servers.each_mut().map(|s| {
                let mut out = CycleDeltas::default();
                s.process_cycle_with_deltas_into(&events, &qev, &mut out)
                    .unwrap();
                out
            });
            assert_eq!(
                four, one,
                "changed lists or deltas diverged at cycle {cycle}"
            );
            for (qi, &(spec, k)) in (0..).map(QueryId).zip(&specs) {
                let mut scalar = NeighborList::new(k);
                for (id, p) in servers[0].grid().iter_objects() {
                    scalar.offer(id, spec.dist(p));
                }
                for s in &servers {
                    assert_eq!(
                        bits(s.result(qi).unwrap()),
                        bits(scalar.neighbors()),
                        "cycle {cycle} {qi} (T = {}): result bits diverged",
                        s.threads()
                    );
                }
            }
            servers.iter().for_each(CpmServer::check_invariants);
        }
    }
}
