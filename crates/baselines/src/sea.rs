//! SEA-CNN (Xiong, Mokbel, Aref — ICDE 2005), as described in Section 2 /
//! Figure 2.2 of the CPM paper.
//!
//! SEA-CNN is a pure maintenance method: it book-keeps, for each query,
//! the *answer region* — the circle centered at `q` with radius
//! `best_dist` — by marking the grid cells that intersect it. A query is
//! affected only when an update touches its answer region or one of its
//! NNs. Per affected query it determines a circular search region `SR` and
//! recomputes the k NN set from the objects inside:
//!
//! * **(i)** NNs moved within the region and/or outer objects entered it:
//!   `r = best_dist`;
//! * **(ii)** some NN left the region: `r = d_max`, the new distance of the
//!   previous NN that moved furthest;
//! * **(iii)** the query moved to `q′`: `r = best_dist + dist(q, q′)`,
//!   centered at `q′`.
//!
//! SEA-CNN has no first-time evaluation module, and it "does not handle
//! the case where some of the current NNs go off-line"; following the CPM
//! paper's experimental setup, both gaps are filled with YPK-CNN's
//! two-step search.

use std::collections::BTreeSet;

use cpm_geom::{FastHashMap, FastHashSet, ObjectId, Point, QueryId};
use cpm_grid::{
    apply_events, CellCoord, CellRuns, Grid, Metrics, ObjectEvent, QueryEvent, UpdateRecord,
};

use cpm_core::neighbors::{Neighbor, NeighborList};

use crate::search::{scan_circle, two_step_search};

#[derive(Debug)]
struct SeaQueryState {
    q: Point,
    best: NeighborList,
    /// Cells currently marked as intersecting the answer region.
    marked: Vec<CellCoord>,
    // --- per-batch transient state ---
    epoch: u64,
    /// Case (i): within-region movement or incomer.
    affected: bool,
    /// Case (ii): max new distance of NNs that left the answer region.
    d_max: f64,
    /// An NN went off-line: fall back to the two-step search.
    needs_full: bool,
}

impl SeaQueryState {
    fn best_dist_or_inf(&self) -> f64 {
        self.best.best_dist()
    }
}

/// Every query's marked cells, listed by cell (Figure 3.3b's influence
/// lists, for answer regions).
#[derive(Debug, Default)]
struct AnswerRegions {
    runs: CellRuns,
    /// The marking queries, in cell order.
    queries: Vec<QueryId>,
    /// Rebuild scratch: every mark's packed cell id and query, in the
    /// order they were given.
    marks: Vec<(u32, QueryId)>,
}

impl AnswerRegions {
    /// Replace the lists with `marks` on a `dim × dim` grid: each list
    /// holds its queries in the order `marks` yields them. The owner's
    /// states are walked once: the sort reads a contiguous copy.
    fn rebuild(&mut self, dim: u32, marks: impl Iterator<Item = (CellCoord, QueryId)>) {
        self.marks.clear();
        self.marks
            .extend(marks.map(|(cell, q)| (cell.id(dim) as u32, q)));
        let (queries, marks) = (&mut self.queries, &self.marks);
        queries.clear();
        queries.resize(marks.len(), QueryId(0));
        let keys = marks.iter().map(|&(key, _)| key);
        self.runs
            .sort(dim, keys, |item, slot| queries[slot] = marks[item].1);
    }

    /// The queries whose answer region covers `cell`.
    fn queries_at(&self, cell: CellCoord) -> &[QueryId] {
        &self.queries[self.runs.run(cell)]
    }
}

/// The SEA-CNN continuous k-NN monitor.
#[derive(Debug)]
pub struct SeaCnnMonitor {
    grid: Grid,
    /// The cycle's [`apply_events`] output, classified after ingest.
    records: Vec<UpdateRecord>,
    /// Every query's marked cells, listed by cell in ascending query id:
    /// rebuilt from the states for each classification, its only reader.
    answer_regions: AnswerRegions,
    queries: FastHashMap<QueryId, SeaQueryState>,
    /// Scratch: the installed ids, ascending, that the answer regions are
    /// listed in.
    ids: Vec<QueryId>,
    /// Queries whose result holds fewer than `k` objects (the whole
    /// workspace influences them), ascending.
    starved: BTreeSet<QueryId>,
    metrics: Metrics,
    epoch: u64,
    touched: Vec<QueryId>,
    ignored: FastHashSet<QueryId>,
    qid_buf: Vec<QueryId>,
}

impl SeaCnnMonitor {
    /// Create a monitor over an empty `dim × dim` grid.
    pub fn new(dim: u32) -> Self {
        Self {
            grid: cpm_grid::GridBuilder::new(dim).build_uniform(),
            records: Vec::new(),
            answer_regions: AnswerRegions::default(),
            queries: FastHashMap::default(),
            ids: Vec::new(),
            starved: BTreeSet::new(),
            metrics: Metrics::default(),
            epoch: 0,
            touched: Vec::new(),
            ignored: FastHashSet::default(),
            qid_buf: Vec::new(),
        }
    }

    /// Bulk-load objects before any query is installed.
    ///
    /// # Panics
    /// Panics if queries are already installed.
    pub fn populate<I: IntoIterator<Item = (ObjectId, Point)>>(&mut self, objects: I) {
        assert!(
            self.queries.is_empty(),
            "populate() is only valid before queries are installed"
        );
        let appears: Vec<ObjectEvent> = (objects.into_iter())
            .map(|(id, pos)| ObjectEvent::Appear { id, pos })
            .collect();
        apply_events(&mut self.grid, &appears, &mut Vec::new());
    }

    /// The object index.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Number of installed queries.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// Current result of query `id`, ascending by distance.
    pub fn result(&self, id: QueryId) -> Option<&[Neighbor]> {
        self.queries.get(&id).map(|st| st.best.neighbors())
    }

    /// Work counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Take and reset the work counters.
    pub fn take_metrics(&mut self) -> Metrics {
        self.metrics.take()
    }

    /// Install a new query (initial result via YPK-CNN's two-step search,
    /// as in the paper's experiments).
    ///
    /// # Panics
    /// Panics if `id` is already installed.
    pub fn install_query(&mut self, id: QueryId, pos: Point, k: usize) -> &[Neighbor] {
        assert!(
            !self.queries.contains_key(&id),
            "query {id} is already installed"
        );
        let best = two_step_search(&self.grid, pos, k, &mut self.metrics);
        let mut st = SeaQueryState {
            q: pos,
            best,
            marked: Vec::new(),
            epoch: 0,
            affected: false,
            d_max: 0.0,
            needs_full: false,
        };
        Self::remark_answer_region(&self.grid, &mut self.starved, id, &mut st);
        self.queries.entry(id).or_insert(st).best.neighbors()
    }

    /// Terminate a query; `true` if it was installed.
    pub fn terminate_query(&mut self, id: QueryId) -> bool {
        self.starved.remove(&id);
        self.queries.remove(&id).is_some()
    }

    /// Run one processing cycle. Returns the queries whose result changed.
    pub fn process_cycle(
        &mut self,
        object_events: &[ObjectEvent],
        query_events: &[QueryEvent],
    ) -> Vec<QueryId> {
        self.epoch += 1;
        self.touched.clear();
        self.ignored.clear();
        for ev in query_events {
            self.ignored.insert(ev.id());
        }

        // Phase 1: apply object updates, then classify affected queries
        // from the records (classification reads no grid state) through
        // the answer regions, listed in ascending query id: the order
        // queries are touched in, and so `changed`'s, is a function of
        // the states and the batch.
        self.records.clear();
        self.metrics.updates_applied +=
            apply_events(&mut self.grid, object_events, &mut self.records);
        self.ids.clear();
        self.ids.extend(self.queries.keys().copied());
        self.ids.sort_unstable();
        let queries = &self.queries;
        let marks = (self.ids.iter())
            .flat_map(|&id| queries[&id].marked.iter().map(move |&cell| (cell, id)));
        self.answer_regions.rebuild(self.grid.dim(), marks);
        let records = std::mem::take(&mut self.records);
        for rec in &records {
            if let Some(old_cell) = rec.old_cell {
                self.classify_departure(rec.id, old_cell, rec.new_pos);
            }
            if let (Some(new_cell), Some(new_pos)) = (rec.new_cell, rec.new_pos) {
                self.classify_arrival(rec.id, new_cell, new_pos);
            }
        }
        self.records = records;

        // Phase 2: recompute every affected query within its search region.
        let mut changed = Vec::new();
        let touched = std::mem::take(&mut self.touched);
        for &qid in &touched {
            let st = self.queries.get_mut(&qid).expect("touched query installed");
            let old: Vec<Neighbor> = st.best.neighbors().to_vec();
            let k = st.best.k();
            if st.needs_full || !st.best.is_full() {
                st.best = two_step_search(&self.grid, st.q, k, &mut self.metrics);
            } else {
                let r = if st.d_max > 0.0 {
                    st.d_max // case (ii), covers any concurrent case-(i) updates
                } else {
                    st.best_dist_or_inf() // case (i)
                };
                st.best = scan_circle(&self.grid, st.q, st.q, r, k, &mut self.metrics);
                self.metrics.recomputations += 1;
            }
            Self::remark_answer_region(&self.grid, &mut self.starved, qid, st);
            if old != st.best.neighbors() {
                changed.push(qid);
            }
        }
        self.touched = touched;

        // Phase 3: query updates.
        for ev in query_events {
            match *ev {
                QueryEvent::Terminate { id } => {
                    self.terminate_query(id);
                }
                QueryEvent::Move { id, to } => {
                    self.move_query(id, to);
                    changed.push(id);
                }
                QueryEvent::Install { id, pos, k } => {
                    self.install_query(id, pos, k);
                    changed.push(id);
                }
            }
        }
        changed
    }

    /// Case (iii): the query moves to `q′`; the new result is computed from
    /// the circle at `q′` with radius `best_dist + dist(q, q′)`.
    fn move_query(&mut self, id: QueryId, to: Point) -> &[Neighbor] {
        let st = self
            .queries
            .get_mut(&id)
            .unwrap_or_else(|| panic!("move of unknown query {id}"));
        let k = st.best.k();
        if st.best.is_full() {
            let r = st.best.best_dist() + st.q.dist(to);
            st.q = to;
            st.best = scan_circle(&self.grid, to, to, r, k, &mut self.metrics);
            self.metrics.recomputations += 1;
            if !st.best.is_full() || st.best.best_dist() > r {
                // The radius was derived from the *pre-batch* best_dist;
                // if the previous NNs also moved this cycle the circle can
                // hold fewer than k objects (a k-th hit beyond r comes
                // from a partially-covered cell and proves nothing).
                // Recover with a full search.
                st.best = two_step_search(&self.grid, st.q, k, &mut self.metrics);
            }
        } else {
            st.q = to;
            st.best = two_step_search(&self.grid, to, k, &mut self.metrics);
        }
        Self::remark_answer_region(&self.grid, &mut self.starved, id, st);
        self.queries[&id].best.neighbors()
    }

    fn classify_departure(&mut self, id: ObjectId, old_cell: CellCoord, new_pos: Option<Point>) {
        let qids = self.answer_regions.queries_at(old_cell);
        if qids.is_empty() {
            return;
        }
        self.qid_buf.clear();
        self.qid_buf
            .extend(qids.iter().copied().filter(|q| !self.ignored.contains(q)));
        for i in 0..self.qid_buf.len() {
            let qid = self.qid_buf[i];
            let st = self.queries.get_mut(&qid).expect("answer region in sync");
            Self::touch(st, qid, self.epoch, &mut self.touched);
            if st.best.contains(id) {
                match new_pos {
                    Some(p) => {
                        let d = st.q.dist(p);
                        if d > st.best.best_dist() {
                            st.d_max = st.d_max.max(d); // case (ii)
                        } else {
                            st.affected = true; // case (i): moved within
                        }
                    }
                    None => st.needs_full = true, // off-line NN
                }
            }
        }
    }

    fn classify_arrival(&mut self, id: ObjectId, new_cell: CellCoord, new_pos: Point) {
        let qids = self.answer_regions.queries_at(new_cell);
        self.qid_buf.clear();
        self.qid_buf
            .extend(qids.iter().copied().filter(|q| !self.ignored.contains(q)));
        for i in 0..self.qid_buf.len() {
            let qid = self.qid_buf[i];
            let st = self.queries.get_mut(&qid).expect("answer region in sync");
            Self::touch(st, qid, self.epoch, &mut self.touched);
            if !st.best.contains(id) && st.q.dist(new_pos) <= st.best.best_dist() {
                st.affected = true; // case (i): incoming object
            }
        }
        // Starved queries (fewer than k objects in the system) conceptually
        // have an unbounded answer region: any arrival affects them, even
        // in cells that were empty (and therefore unmarked) before.
        if !self.starved.is_empty() {
            self.qid_buf.clear();
            self.qid_buf.extend(
                self.starved
                    .iter()
                    .copied()
                    .filter(|q| !self.ignored.contains(q)),
            );
            for i in 0..self.qid_buf.len() {
                let qid = self.qid_buf[i];
                let st = self.queries.get_mut(&qid).expect("starved query installed");
                Self::touch(st, qid, self.epoch, &mut self.touched);
                st.affected = true;
            }
        }
    }

    fn touch(st: &mut SeaQueryState, qid: QueryId, epoch: u64, touched: &mut Vec<QueryId>) {
        if st.epoch != epoch {
            st.epoch = epoch;
            st.affected = false;
            st.d_max = 0.0;
            st.needs_full = false;
            touched.push(qid);
        }
    }

    /// Replace the answer-region cell marks with the distinct cells
    /// intersecting the current circle `(q, best_dist)`, and keep the
    /// starved set in sync.
    fn remark_answer_region(
        grid: &Grid,
        starved: &mut BTreeSet<QueryId>,
        id: QueryId,
        st: &mut SeaQueryState,
    ) {
        let bd = st.best.best_dist();
        // Refill the mark list in place: the circle cover streams straight
        // out of the allocation-free `cells_in_circle` iterator into the
        // query's reused buffer, so steady-state re-marking allocates
        // nothing (this runs for every affected query every cycle).
        st.marked.clear();
        if bd.is_finite() {
            starved.remove(&id);
            st.marked.extend(grid.cells_in_circle(st.q, bd));
        } else {
            // Fewer than k objects exist: the whole workspace influences
            // the result. Departures/disappearances are caught through the
            // occupied-cell marks; arrivals anywhere are caught through the
            // starved set in `classify_arrival`.
            starved.insert(id);
            st.marked.extend(grid.occupied_cells());
            let home = grid.cell_of(st.q);
            if grid.cell_len(home) == 0 {
                st.marked.push(home);
            }
        }
    }

    /// Memory footprint in the paper's memory units: `3·N` for the grid
    /// data, one unit per answer-region cell mark, plus `3 + 2k` per
    /// query-table entry.
    pub fn space_units(&self) -> usize {
        let entry = |st: &SeaQueryState| st.marked.len() + 3 + 2 * st.best.k();
        self.grid.space_units() + self.queries.values().map(entry).sum::<usize>()
    }

    /// Verify answer-region book-keeping invariants (test helper).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let dim = self.grid.dim();
        for (qid, st) in &self.queries {
            assert!(
                st.marked.iter().all(|c| c.col < dim && c.row < dim),
                "{qid} marks a cell off the grid"
            );
            // A cell marked twice would be listed twice and classify every
            // update there twice.
            let mut cells = st.marked.clone();
            cells.sort_unstable();
            assert!(
                cells.windows(2).all(|w| w[0] < w[1]),
                "{qid} marks a cell twice"
            );
            assert_eq!(
                self.starved.contains(qid),
                !st.best.is_full(),
                "starved {qid}"
            );
            let bd = st.best.best_dist();
            if bd.is_finite() {
                for &cell in &st.marked {
                    assert!(
                        self.grid.cell_rect(cell).intersects_circle(st.q, bd),
                        "marked cell outside answer region"
                    );
                }
            }
            for n in st.best.neighbors() {
                let p = self.grid.position(n.id).expect("result object live");
                assert!((st.q.dist(p) - n.dist).abs() < 1e-9, "stale distance");
            }
        }
        assert!(self.starved.iter().all(|id| self.queries.contains_key(id)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn brute(grid: &Grid, q: Point, k: usize) -> Vec<f64> {
        let mut d: Vec<f64> = grid.iter_objects().map(|(_, p)| q.dist(p)).collect();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        d.truncate(k);
        d
    }

    fn assert_matches(m: &SeaCnnMonitor, id: QueryId) {
        let st = m.queries.get(&id).unwrap();
        let expect = brute(&m.grid, st.q, st.best.k());
        let got: Vec<f64> = st.best.neighbors().iter().map(|n| n.dist).collect();
        assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-9, "{got:?} vs {expect:?}");
        }
    }

    #[test]
    fn unaffected_queries_do_no_work() {
        let mut m = SeaCnnMonitor::new(16);
        m.populate([
            (ObjectId(0), Point::new(0.1, 0.1)),
            (ObjectId(1), Point::new(0.12, 0.12)),
            (ObjectId(2), Point::new(0.9, 0.9)),
        ]);
        m.install_query(QueryId(0), Point::new(0.1, 0.11), 1);
        m.take_metrics();
        // An update far from the answer region: SEA-CNN must not touch q.
        let changed = m.process_cycle(
            &[ObjectEvent::Move {
                id: ObjectId(2),
                to: Point::new(0.85, 0.85),
            }],
            &[],
        );
        assert!(changed.is_empty());
        assert_eq!(m.metrics().cell_accesses, 0);
        m.check_invariants();
    }

    #[test]
    fn incomer_triggers_answer_region_rescan_fig_4_3a() {
        let mut m = SeaCnnMonitor::new(16);
        m.populate([
            (ObjectId(0), Point::new(0.50, 0.55)),
            (ObjectId(1), Point::new(0.9, 0.9)),
        ]);
        m.install_query(QueryId(0), Point::new(0.5, 0.5), 1);
        m.take_metrics();
        let changed = m.process_cycle(
            &[ObjectEvent::Move {
                id: ObjectId(1),
                to: Point::new(0.5, 0.52),
            }],
            &[],
        );
        assert_eq!(changed, vec![QueryId(0)]);
        // SEA-CNN pays cell accesses for this (CPM would resolve it from
        // the update alone — the Figure 4.3a contrast).
        assert!(m.metrics().cell_accesses > 0);
        assert_eq!(m.result(QueryId(0)).unwrap()[0].id, ObjectId(1));
        assert_matches(&m, QueryId(0));
        m.check_invariants();
    }

    #[test]
    fn outgoing_nn_uses_dmax_region_fig_2_2a() {
        let mut m = SeaCnnMonitor::new(16);
        m.populate([
            (ObjectId(0), Point::new(0.50, 0.55)), // p2: NN
            (ObjectId(1), Point::new(0.42, 0.42)), // p1: next best
        ]);
        m.install_query(QueryId(0), Point::new(0.5, 0.5), 1);
        let changed = m.process_cycle(
            &[ObjectEvent::Move {
                id: ObjectId(0),
                to: Point::new(0.8, 0.8),
            }],
            &[],
        );
        assert_eq!(changed, vec![QueryId(0)]);
        assert_eq!(m.result(QueryId(0)).unwrap()[0].id, ObjectId(1));
        assert_matches(&m, QueryId(0));
        m.check_invariants();
    }

    #[test]
    fn query_move_uses_expanded_circle_fig_2_2b() {
        let mut m = SeaCnnMonitor::new(16);
        m.populate([
            (ObjectId(0), Point::new(0.3, 0.3)),
            (ObjectId(1), Point::new(0.62, 0.62)),
        ]);
        m.install_query(QueryId(0), Point::new(0.3, 0.32), 1);
        assert_eq!(m.result(QueryId(0)).unwrap()[0].id, ObjectId(0));
        let changed = m.process_cycle(
            &[],
            &[QueryEvent::Move {
                id: QueryId(0),
                to: Point::new(0.6, 0.6),
            }],
        );
        assert_eq!(changed, vec![QueryId(0)]);
        assert_eq!(m.result(QueryId(0)).unwrap()[0].id, ObjectId(1));
        assert_matches(&m, QueryId(0));
        m.check_invariants();
    }

    #[test]
    fn offline_nn_falls_back_to_two_step_search() {
        let mut m = SeaCnnMonitor::new(16);
        m.populate([
            (ObjectId(0), Point::new(0.5, 0.52)),
            (ObjectId(1), Point::new(0.2, 0.8)),
        ]);
        m.install_query(QueryId(0), Point::new(0.5, 0.5), 1);
        let changed = m.process_cycle(&[ObjectEvent::Disappear { id: ObjectId(0) }], &[]);
        assert_eq!(changed, vec![QueryId(0)]);
        assert_eq!(m.result(QueryId(0)).unwrap()[0].id, ObjectId(1));
        assert_matches(&m, QueryId(0));
        m.check_invariants();
    }

    /// A query with fewer than `k` objects in the system watches every
    /// arrival; once terminated it watches none, and the starved query
    /// that stays keeps an exact result. Its home cell holds an object,
    /// so its marks are the occupied cells alone, each once.
    #[test]
    fn terminated_starved_query_leaves_no_trace() {
        let mut m = SeaCnnMonitor::new(8);
        m.populate([(ObjectId(0), Point::new(0.5, 0.5))]);
        m.install_query(QueryId(0), Point::new(0.51, 0.51), 3);
        m.install_query(QueryId(1), Point::new(0.2, 0.2), 2);
        // Marks + `3 + 2k` each: query 1's empty home cell is marked too.
        let entries = (1 + 3 + 2 * 3) + (2 + 3 + 2 * 2);
        assert_eq!(m.space_units(), m.grid.space_units() + entries);
        m.check_invariants();
        m.process_cycle(&[], &[QueryEvent::Terminate { id: QueryId(0) }]);
        let arrival = ObjectEvent::Appear {
            id: ObjectId(1),
            pos: Point::new(0.9, 0.1),
        };
        assert_eq!(m.process_cycle(&[arrival], &[]), vec![QueryId(1)]);
        assert_matches(&m, QueryId(1));
        m.check_invariants();
    }

    #[test]
    fn randomized_stream_matches_oracle() {
        let mut rng = StdRng::seed_from_u64(0x5EA);
        let mut m = SeaCnnMonitor::new(32);
        m.populate((0..80u32).map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen()))));
        for qi in 0..5u32 {
            m.install_query(
                QueryId(qi),
                Point::new(rng.gen(), rng.gen()),
                1 + (qi as usize % 3) * 4,
            );
        }
        let mut live: Vec<u32> = (0..80).collect();
        let mut next = 80u32;
        for _ in 0..25 {
            let mut evs = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for _ in 0..rng.gen_range(0..12) {
                match rng.gen_range(0..10) {
                    0 if live.len() > 10 => {
                        let id = live.swap_remove(rng.gen_range(0..live.len()));
                        if seen.insert(id) {
                            evs.push(ObjectEvent::Disappear { id: ObjectId(id) });
                        } else {
                            live.push(id);
                        }
                    }
                    1 => {
                        live.push(next);
                        seen.insert(next);
                        evs.push(ObjectEvent::Appear {
                            id: ObjectId(next),
                            pos: Point::new(rng.gen(), rng.gen()),
                        });
                        next += 1;
                    }
                    _ => {
                        let id = live[rng.gen_range(0..live.len())];
                        if seen.insert(id) {
                            evs.push(ObjectEvent::Move {
                                id: ObjectId(id),
                                to: Point::new(rng.gen(), rng.gen()),
                            });
                        }
                    }
                }
            }
            let qev = if rng.gen_bool(0.25) {
                vec![QueryEvent::Move {
                    id: QueryId(rng.gen_range(0..5)),
                    to: Point::new(rng.gen(), rng.gen()),
                }]
            } else {
                Vec::new()
            };
            m.process_cycle(&evs, &qev);
            m.check_invariants();
            for qi in 0..5u32 {
                assert_matches(&m, QueryId(qi));
            }
        }
    }
}
