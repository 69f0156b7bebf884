//! YPK-CNN (Yu, Pu, Koudas — ICDE 2005), as described in Section 2 /
//! Figure 2.1 of the CPM paper.
//!
//! YPK-CNN applies location updates directly to the grid and re-evaluates
//! *every* installed query every `T` time units (the CPM paper's
//! experiments evaluate queries at every timestamp, i.e. `T = 1`):
//!
//! * **First-time evaluation** (new or moved queries): the two-step search
//!   of Figure 2.1a — expanding square rings around `c_q` until `k`
//!   candidates are found (distance `d` of the k-th), then a scan of every
//!   cell intersecting the square `SR` of side `2·d + δ` centered at `c_q`.
//! * **Re-evaluation** (Figure 2.1b): `d_max` = current distance of the
//!   previous NN that moved furthest; scan the square of side `2·d_max+δ`.
//!   The previous NNs all lie within `d_max`, so the square is guaranteed
//!   to contain at least `k` objects.
//!
//! There is no update-detection book-keeping: queries are re-evaluated even
//! when nothing near them changed — the primary cost driver the CPM paper
//! identifies (Section 4.2). When a previous NN has gone off-line, the
//! query falls back to first-time evaluation (YPK-CNN itself leaves this
//! case unspecified).

use cpm_geom::{FastHashMap, Point, QueryId};
use cpm_grid::{apply_events, Grid, Metrics, ObjectEvent, QueryEvent, UpdateRecord};

use cpm_core::neighbors::{Neighbor, NeighborList};

use crate::search::{scan_square, two_step_search};

#[derive(Debug)]
struct YpkQueryState {
    q: Point,
    best: NeighborList,
}

/// The YPK-CNN continuous k-NN monitor.
#[derive(Debug)]
pub struct YpkCnnMonitor {
    grid: Grid,
    /// [`apply_events`]' output, unread: YPK-CNN re-evaluates every
    /// query whatever moved.
    records: Vec<UpdateRecord>,
    queries: FastHashMap<QueryId, YpkQueryState>,
    metrics: Metrics,
    eval_period: u64,
    tick: u64,
}

impl YpkCnnMonitor {
    /// Create a monitor over an empty `dim × dim` grid, re-evaluating every
    /// cycle (`T = 1`, the paper's experimental setting).
    pub fn new(dim: u32) -> Self {
        Self::with_period(dim, 1)
    }

    /// Create a monitor that re-evaluates queries every `period` cycles.
    ///
    /// # Panics
    /// Panics if `period == 0`.
    pub fn with_period(dim: u32, period: u64) -> Self {
        assert!(period > 0, "evaluation period must be positive");
        Self {
            grid: cpm_grid::GridBuilder::new(dim).build_uniform(),
            records: Vec::new(),
            queries: FastHashMap::default(),
            metrics: Metrics::default(),
            eval_period: period,
            tick: 0,
        }
    }

    /// Bulk-load objects before any query is installed.
    ///
    /// # Panics
    /// Panics if queries are already installed.
    pub fn populate<I: IntoIterator<Item = (cpm_geom::ObjectId, Point)>>(&mut self, objects: I) {
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

    /// Install a new query and evaluate it with the two-step search.
    ///
    /// # Panics
    /// Panics if `id` is already installed.
    pub fn install_query(&mut self, id: QueryId, pos: Point, k: usize) -> &[Neighbor] {
        assert!(
            !self.queries.contains_key(&id),
            "query {id} is already installed"
        );
        let best = two_step_search(&self.grid, pos, k, &mut self.metrics);
        self.queries
            .entry(id)
            .or_insert(YpkQueryState { q: pos, best })
            .best
            .neighbors()
    }

    /// Terminate a query; `true` if it was installed.
    pub fn terminate_query(&mut self, id: QueryId) -> bool {
        self.queries.remove(&id).is_some()
    }

    /// Run one processing cycle: apply object updates directly to the grid,
    /// apply query updates, then (every `T`-th cycle) re-evaluate all
    /// queries. Returns the queries whose reported result changed.
    pub fn process_cycle(
        &mut self,
        object_events: &[ObjectEvent],
        query_events: &[QueryEvent],
    ) -> Vec<QueryId> {
        self.tick += 1;

        // YPK-CNN "does not process updates as they arrive, but directly
        // applies the changes to the grid".
        self.records.clear();
        self.metrics.updates_applied +=
            apply_events(&mut self.grid, object_events, &mut self.records);

        let mut changed = Vec::new();
        for ev in query_events {
            match *ev {
                QueryEvent::Terminate { id } => {
                    self.terminate_query(id);
                }
                QueryEvent::Move { id, to } => {
                    // "When a query q changes location, it is handled as a
                    // new one."
                    let st = self
                        .queries
                        .get_mut(&id)
                        .unwrap_or_else(|| panic!("move of unknown query {id}"));
                    st.q = to;
                    st.best = two_step_search(&self.grid, to, st.best.k(), &mut self.metrics);
                    changed.push(id);
                }
                QueryEvent::Install { id, pos, k } => {
                    self.install_query(id, pos, k);
                    changed.push(id);
                }
            }
        }

        if self.tick.is_multiple_of(self.eval_period) {
            self.reevaluate_all(&mut changed);
        }
        changed
    }

    /// Memory footprint in the paper's memory units: `3·N` for the grid
    /// data plus `3 + 2k` per query-table entry (id, coordinates, result).
    /// YPK-CNN keeps no influence lists, visit lists or search heaps.
    pub fn space_units(&self) -> usize {
        self.grid.space_units()
            + self
                .queries
                .values()
                .map(|st| 3 + 2 * st.best.k())
                .sum::<usize>()
    }

    /// Periodic re-evaluation of every installed query (Figure 2.1b).
    fn reevaluate_all(&mut self, changed: &mut Vec<QueryId>) {
        // Deterministic iteration order for reproducible metrics.
        let mut ids: Vec<QueryId> = self.queries.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let st = self.queries.get_mut(&id).expect("query installed");
            let k = st.best.k();

            // d_max over the *current* positions of the previous NNs; an
            // off-line previous NN forces evaluation from scratch.
            let mut d_max = 0.0f64;
            let mut offline = false;
            for n in st.best.neighbors() {
                match self.grid.position(n.id) {
                    Some(p) => d_max = d_max.max(st.q.dist(p)),
                    None => {
                        offline = true;
                        break;
                    }
                }
            }

            let old: Vec<Neighbor> = st.best.neighbors().to_vec();
            if offline || !st.best.is_full() {
                st.best = two_step_search(&self.grid, st.q, k, &mut self.metrics);
            } else {
                let mut best = NeighborList::new(k);
                scan_square(&self.grid, st.q, d_max, &mut best, None, &mut self.metrics);
                self.metrics.recomputations += 1;
                debug_assert!(best.is_full(), "SR square must contain k objects");
                st.best = best;
            }
            if old != st.best.neighbors() {
                changed.push(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_geom::ObjectId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn brute(grid: &Grid, q: Point, k: usize) -> Vec<f64> {
        let mut d: Vec<f64> = grid.iter_objects().map(|(_, p)| q.dist(p)).collect();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        d.truncate(k);
        d
    }

    fn assert_matches(m: &YpkCnnMonitor, id: QueryId) {
        let st = m.queries.get(&id).unwrap();
        let expect = brute(&m.grid, st.q, st.best.k());
        let got: Vec<f64> = st.best.neighbors().iter().map(|n| n.dist).collect();
        assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-9, "{got:?} vs {expect:?}");
        }
    }

    #[test]
    fn install_then_updates_track_oracle() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut m = YpkCnnMonitor::new(16);
        m.populate((0..50u32).map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen()))));
        m.install_query(QueryId(0), Point::new(0.5, 0.5), 4);
        assert_matches(&m, QueryId(0));
        for _ in 0..20 {
            let mut evs = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for _ in 0..rng.gen_range(1..10) {
                let id = rng.gen_range(0..50u32);
                if seen.insert(id) {
                    evs.push(ObjectEvent::Move {
                        id: ObjectId(id),
                        to: Point::new(rng.gen(), rng.gen()),
                    });
                }
            }
            m.process_cycle(&evs, &[]);
            assert_matches(&m, QueryId(0));
        }
    }

    #[test]
    fn reevaluates_every_cycle_even_without_updates() {
        let mut m = YpkCnnMonitor::new(16);
        m.populate([(ObjectId(0), Point::new(0.2, 0.2))]);
        m.install_query(QueryId(0), Point::new(0.5, 0.5), 1);
        m.take_metrics();
        m.process_cycle(&[], &[]);
        // One re-evaluation with its cell scans happened despite no change:
        // the cost driver CPM eliminates.
        let metrics = m.metrics();
        assert!(metrics.cell_accesses > 0);
    }

    #[test]
    fn respects_evaluation_period() {
        let mut m = YpkCnnMonitor::with_period(16, 3);
        m.populate([
            (ObjectId(0), Point::new(0.2, 0.2)),
            (ObjectId(1), Point::new(0.8, 0.8)),
        ]);
        m.install_query(QueryId(0), Point::new(0.3, 0.3), 1);
        // The NN teleports away; the stale result persists until the next
        // evaluation tick.
        let moved = [ObjectEvent::Move {
            id: ObjectId(0),
            to: Point::new(0.9, 0.9),
        }];
        let changed = m.process_cycle(&moved, &[]); // tick 1
        assert!(changed.is_empty());
        assert_eq!(m.result(QueryId(0)).unwrap()[0].id, ObjectId(0)); // stale
        m.process_cycle(&[], &[]); // tick 2
        let changed = m.process_cycle(&[], &[]); // tick 3 → re-evaluate
        assert_eq!(changed, vec![QueryId(0)]);
        assert_eq!(m.result(QueryId(0)).unwrap()[0].id, ObjectId(1));
    }

    #[test]
    fn offline_previous_nn_forces_full_search() {
        let mut m = YpkCnnMonitor::new(16);
        m.populate([
            (ObjectId(0), Point::new(0.5, 0.52)),
            (ObjectId(1), Point::new(0.1, 0.9)),
        ]);
        m.install_query(QueryId(0), Point::new(0.5, 0.5), 1);
        let changed = m.process_cycle(&[ObjectEvent::Disappear { id: ObjectId(0) }], &[]);
        assert_eq!(changed, vec![QueryId(0)]);
        assert_eq!(m.result(QueryId(0)).unwrap()[0].id, ObjectId(1));
        assert_matches(&m, QueryId(0));
    }

    #[test]
    fn moving_query_is_recomputed_from_scratch() {
        let mut m = YpkCnnMonitor::new(16);
        m.populate([
            (ObjectId(0), Point::new(0.1, 0.1)),
            (ObjectId(1), Point::new(0.9, 0.9)),
        ]);
        m.install_query(QueryId(0), Point::new(0.2, 0.2), 1);
        assert_eq!(m.result(QueryId(0)).unwrap()[0].id, ObjectId(0));
        m.process_cycle(
            &[],
            &[QueryEvent::Move {
                id: QueryId(0),
                to: Point::new(0.8, 0.8),
            }],
        );
        assert_eq!(m.result(QueryId(0)).unwrap()[0].id, ObjectId(1));
        assert_matches(&m, QueryId(0));
    }

    #[test]
    fn multiple_queries_randomized_against_oracle() {
        let mut rng = StdRng::seed_from_u64(0x1234);
        let mut m = YpkCnnMonitor::new(32);
        m.populate((0..80u32).map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen()))));
        for qi in 0..5u32 {
            m.install_query(
                QueryId(qi),
                Point::new(rng.gen(), rng.gen()),
                1 + qi as usize * 2,
            );
        }
        let mut live: Vec<u32> = (0..80).collect();
        let mut next = 80u32;
        for _ in 0..20 {
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
            for qi in 0..5u32 {
                assert_matches(&m, QueryId(qi));
            }
        }
    }
}
