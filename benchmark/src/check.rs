//! Correctness, kept out of every timed span: an independent mirror of
//! object and query positions folded from the generated events, and
//! `cpm_sim`'s brute-force oracle evaluated over it.

use cpm_suite::core::Neighbor;
use cpm_suite::geom::{ObjectId, Point, QueryId};
use cpm_suite::grid::{ObjectEvent, QueryEvent};
use cpm_suite::sim::{KnnMonitorAlgo, OracleMonitor};

use crate::system::Ledger;

/// Bitwise equality of two results: ids, order and `f64` distance bits.
pub fn same_bits(a: &[Neighbor], b: &[Neighbor]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && x.dist.to_bits() == y.dist.to_bits())
}

/// Where every object and query is, according to the events alone.
#[derive(Debug, Clone)]
pub struct Mirror {
    objects: Vec<Option<Point>>,
    pub queries: Vec<Point>,
    pub k: usize,
}

impl Mirror {
    pub fn new(objects: &[(ObjectId, Point)], queries: &[(QueryId, Point, usize)]) -> Mirror {
        let mut m = Mirror {
            objects: Vec::new(),
            queries: queries.iter().map(|&(_, p, _)| p).collect(),
            k: queries.first().map_or(1, |&(_, _, k)| k),
        };
        for &(id, p) in objects {
            m.set(id, Some(p));
        }
        m
    }

    fn set(&mut self, id: ObjectId, p: Option<Point>) {
        let i = id.index();
        if i >= self.objects.len() {
            self.objects.resize(i + 1, None);
        }
        self.objects[i] = p;
    }

    pub fn apply(&mut self, objects: &[ObjectEvent], queries: &[QueryEvent]) {
        for ev in objects {
            self.set(ev.id(), ev.position());
        }
        for ev in queries {
            if let QueryEvent::Move { id, to } = *ev {
                self.queries[id.index()] = to;
            }
        }
    }

    pub fn live(&self) -> Vec<(ObjectId, Point)> {
        self.objects
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (ObjectId(i as u32), p)))
            .collect()
    }

    /// Is `got` an exact k-NN result of a query at `q`, given the
    /// brute-force `truth`? Distances must equal the oracle's bit for bit,
    /// rank by rank. Ids may differ from the oracle's only among
    /// equidistant objects (the generators clamp positions to the
    /// workspace, so objects pile up on its corners at distance 0 from a
    /// query clamped there, and which of them a k-NN result keeps is not
    /// unique): every reported id must be a distinct live object that
    /// really is at the reported distance.
    fn exact_knn(&self, q: Point, truth: &[Neighbor], got: &[Neighbor]) -> bool {
        if same_bits(truth, got) {
            return true;
        }
        let mut ids: Vec<ObjectId> = got.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len() == got.len()
            && got.len() == truth.len()
            && got.iter().zip(truth).all(|(g, t)| {
                let at = self.objects.get(g.id.index()).copied().flatten();
                g.dist.to_bits() == t.dist.to_bits()
                    && at.is_some_and(|p| q.dist(p).to_bits() == g.dist.to_bits())
            })
    }

    /// Check `got(q)` against the brute-force result of each given query
    /// over the mirrored positions (see [`Mirror::exact_knn`]), counting
    /// every comparison into the ledger; returns the number that differed.
    pub fn oracle_check<'a>(
        &self,
        queries: impl Iterator<Item = usize>,
        got: impl Fn(usize) -> &'a [Neighbor],
        ledger: &mut Ledger,
    ) -> u64 {
        let mut oracle = OracleMonitor::new();
        oracle.populate(&self.live());
        let before = ledger.failed;
        for q in queries {
            let qid = QueryId(q as u32);
            oracle.install_query(qid, self.queries[q], self.k);
            let truth = oracle.result(qid).unwrap_or(&[]);
            let replica = got(q);
            ledger.check(self.exact_knn(self.queries[q], truth, replica), || {
                let at = truth
                    .iter()
                    .zip(replica)
                    .position(|(t, r)| t.id != r.id || t.dist.to_bits() != r.dist.to_bits())
                    .unwrap_or(truth.len().min(replica.len()));
                format!(
                    "query {q} differs from the oracle at rank {at}: oracle {:?} vs replica {:?} (lengths {} / {})",
                    truth.get(at),
                    replica.get(at),
                    truth.len(),
                    replica.len()
                )
            });
        }
        ledger.failed - before
    }
}
