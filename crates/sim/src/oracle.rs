//! Brute-force ground-truth monitor.
//!
//! Re-evaluates every query by a full scan over all objects at every
//! cycle. Obviously not a contender — it exists so that integration tests
//! can assert that CPM, YPK-CNN and SEA-CNN all report exact results on
//! identical update streams.

use cpm_geom::{FastHashMap, ObjectId, Point, QueryId};
use cpm_grid::{Metrics, ObjectEvent, QueryEvent};

use cpm_core::neighbors::NeighborList;
use cpm_core::{Neighbor, PointQuery, QuerySpec};

use crate::algo::{AlgoKind, KnnMonitorAlgo};

/// Ground truth for any query geometry over an explicit object
/// population: the `k` objects of smallest finite (aggregate) distance,
/// ascending by `(distance, id)` — the order the engine reports, with
/// distances computed by the spec's own [`QuerySpec::dist`], so k-NN and
/// range results can be compared bit for bit. An infinite distance means
/// "never qualifies" (outside a range or constraint region).
pub fn brute_force<S: QuerySpec>(
    objects: impl IntoIterator<Item = (ObjectId, Point)>,
    spec: &S,
    k: usize,
) -> Vec<Neighbor> {
    // Bounded by k, not by the population: the oracle also runs over
    // 100K-object streams, one query after another.
    let mut best = NeighborList::new(k);
    for (id, p) in objects {
        let dist = spec.dist(p);
        if dist.is_finite() {
            best.offer(id, dist);
        }
    }
    best.neighbors().to_vec()
}

/// Brute-force reverse NN: `p ∈ RNN(q)` iff no other object is strictly
/// closer to `p` than `q` is.
pub fn brute_rnn(objects: &[(ObjectId, Point)], q: Point) -> Vec<ObjectId> {
    let lonely = |&(id, p): &(ObjectId, Point)| {
        let dq = p.dist(q);
        !objects.iter().any(|&(o, op)| o != id && p.dist(op) < dq)
    };
    objects.iter().filter(|o| lonely(o)).map(|o| o.0).collect()
}

/// Equal length and pairwise distances within `1e-9`: how the YPK-CNN and
/// SEA-CNN baselines are held to the oracle
/// ([`crate::verify_against_oracle`]), since they may resolve a distance
/// tie to another id. CPM itself is compared exactly ([`crate::verify()`]).
pub fn same_distances(got: &[Neighbor], want: &[Neighbor]) -> bool {
    let close = |(g, w): (&Neighbor, &Neighbor)| (g.dist - w.dist).abs() < 1e-9;
    got.len() == want.len() && got.iter().zip(want).all(close)
}

#[derive(Debug)]
struct OracleQuery {
    q: Point,
    k: usize,
    best: Vec<Neighbor>,
}

/// The brute-force monitor.
#[derive(Debug, Default)]
pub struct OracleMonitor {
    positions: Vec<Option<Point>>,
    queries: FastHashMap<QueryId, OracleQuery>,
    metrics: Metrics,
}

impl OracleMonitor {
    /// Create an empty oracle.
    pub fn new() -> Self {
        Self::default()
    }

    fn set_position(&mut self, id: ObjectId, p: Option<Point>) {
        let idx = id.index();
        if idx >= self.positions.len() {
            self.positions.resize(idx + 1, None);
        }
        self.positions[idx] = p;
    }

    fn evaluate(positions: &[Option<Point>], st: &mut OracleQuery) {
        let live = positions
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (ObjectId(i as u32), p)));
        st.best = brute_force(live, &PointQuery(st.q), st.k);
    }
}

impl KnnMonitorAlgo for OracleMonitor {
    fn name(&self) -> &'static str {
        AlgoKind::Oracle.label()
    }

    fn populate(&mut self, objects: &[(ObjectId, Point)]) {
        for &(id, p) in objects {
            self.set_position(id, Some(p));
        }
    }

    fn install_query(&mut self, id: QueryId, pos: Point, k: usize) {
        let mut st = OracleQuery {
            q: pos,
            k,
            best: Vec::new(),
        };
        Self::evaluate(&self.positions, &mut st);
        self.queries.insert(id, st);
    }

    fn process_cycle(
        &mut self,
        object_events: &[ObjectEvent],
        query_events: &[QueryEvent],
    ) -> Vec<QueryId> {
        for ev in object_events {
            match *ev {
                ObjectEvent::Move { id, to } => self.set_position(id, Some(to)),
                ObjectEvent::Appear { id, pos } => self.set_position(id, Some(pos)),
                ObjectEvent::Disappear { id } => self.set_position(id, None),
            }
            self.metrics.updates_applied += 1;
        }
        for ev in query_events {
            match *ev {
                QueryEvent::Terminate { id } => {
                    self.queries.remove(&id);
                }
                QueryEvent::Move { id, to } => {
                    if let Some(st) = self.queries.get_mut(&id) {
                        st.q = to;
                    }
                }
                QueryEvent::Install { id, pos, k } => {
                    self.queries.insert(
                        id,
                        OracleQuery {
                            q: pos,
                            k,
                            best: Vec::new(),
                        },
                    );
                }
            }
        }
        let mut changed = Vec::new();
        for (&qid, st) in self.queries.iter_mut() {
            let old = std::mem::take(&mut st.best);
            Self::evaluate(&self.positions, st);
            if old != st.best {
                changed.push(qid);
            }
        }
        changed.sort_unstable();
        changed
    }

    fn result(&self, id: QueryId) -> Option<&[Neighbor]> {
        self.queries.get(&id).map(|st| st.best.as_slice())
    }

    fn take_metrics(&mut self) -> Metrics {
        self.metrics.take()
    }

    fn space_units(&self) -> usize {
        3 * self.positions.iter().flatten().count()
            + self.queries.values().map(|st| 3 + 2 * st.k).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_tracks_exact_results() {
        let mut o = OracleMonitor::new();
        o.populate(&[
            (ObjectId(0), Point::new(0.1, 0.1)),
            (ObjectId(1), Point::new(0.9, 0.9)),
        ]);
        o.install_query(QueryId(0), Point::new(0.2, 0.2), 1);
        assert_eq!(o.result(QueryId(0)).unwrap()[0].id, ObjectId(0));
        let changed = o.process_cycle(
            &[ObjectEvent::Move {
                id: ObjectId(1),
                to: Point::new(0.21, 0.21),
            }],
            &[],
        );
        assert_eq!(changed, vec![QueryId(0)]);
        assert_eq!(o.result(QueryId(0)).unwrap()[0].id, ObjectId(1));
        o.process_cycle(&[ObjectEvent::Disappear { id: ObjectId(1) }], &[]);
        assert_eq!(o.result(QueryId(0)).unwrap()[0].id, ObjectId(0));
    }
}
