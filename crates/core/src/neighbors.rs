//! The `best_NN` list: the k best neighbors found so far, sorted by
//! `(dist, id)` (Table 3.1).
//!
//! The paper's analysis assumes a balanced tree (`log k` updates). For the
//! experimental range `k ≤ 256` a sorted vector with binary-search
//! insertion does the same job with one contiguous allocation: an insert
//! shifts at most k 16-byte entries, a few cache lines, where a tree
//! chases a pointer per level.
//!
//! The one index beside the sorted entries is a member set. Membership
//! tests are the hottest operation of update handling — every departure
//! and every qualifying arrival of a cycle asks one — and the set answers
//! them in O(1), where a scan of the entries costs O(k). The set is
//! touched only when membership changes (an insert, an eviction, a
//! removal), never when a member's distance moves. Answering `contains`
//! by a scan of the entries instead would shrink every query state, but
//! measured slower end to end on the benchmark's `paper_default` and
//! `delta_churn` workloads, so the set stays.

use cpm_geom::{FastHashSet, ObjectId};

/// One result entry: object id plus its (aggregate) distance to the query.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Neighbor {
    /// The object.
    pub id: ObjectId,
    /// Its current (aggregate) distance to the query.
    pub dist: f64,
}

/// A capacity-`k` list of the best neighbors found so far, ascending by
/// `(dist, id)`.
///
/// The id is part of the key, not only of the order: a query's result is
/// defined as the `k` smallest objects under `(dist, id)`, and every
/// path that fills a list (search, re-computation, the merge of Figure
/// 3.8, and the engine's incomer test against the cycle-start k-th entry)
/// keeps to that definition. So a result is a function of the object
/// positions, whatever order a cycle processed them in, and a re-grid or
/// a restore recomputes the very list a query held.
#[derive(Debug, Clone, Default)]
pub struct NeighborList {
    k: usize,
    entries: Vec<Neighbor>,
    members: FastHashSet<ObjectId>,
}

impl NeighborList {
    /// An empty list with capacity `k ≥ 1`.
    ///
    /// The allocation hint is bounded: range subscriptions use a huge `k`
    /// as an "unbounded result" sentinel ([`crate::range::RangeQuery`]),
    /// and the entry vector must grow to the actual result size, not to
    /// the sentinel.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        Self {
            k,
            entries: Vec::with_capacity(k.min(256)),
            members: FastHashSet::default(),
        }
    }

    /// The capacity `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Current number of neighbors (≤ k).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no neighbors are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` when the list holds `k` neighbors.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.k
    }

    /// `best_dist`: distance of the k-th neighbor, or `+∞` while the list
    /// is not yet full (so every candidate qualifies, as in Figure 3.4
    /// line 1).
    #[inline]
    pub fn best_dist(&self) -> f64 {
        if self.is_full() {
            self.entries[self.k - 1].dist
        } else {
            f64::INFINITY
        }
    }

    /// O(1) membership test.
    #[inline]
    pub fn contains(&self, id: ObjectId) -> bool {
        self.members.contains(&id)
    }

    /// The neighbors, ascending by distance.
    #[inline]
    pub fn neighbors(&self) -> &[Neighbor] {
        &self.entries
    }

    /// Remove everything.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.members.clear();
    }

    fn insertion_point(&self, n: Neighbor) -> usize {
        self.entries
            .partition_point(|e| (e.dist, e.id) < (n.dist, n.id))
    }

    /// Offer a candidate: inserted if the list is not full or if it beats
    /// the current k-th neighbor (which is then evicted). Returns `true`
    /// if the list changed.
    ///
    /// # Panics
    /// Debug-panics if `id` is inserted while already a member — callers
    /// distinguish candidate insertion from [`NeighborList::update_dist`].
    pub fn offer(&mut self, id: ObjectId, dist: f64) -> bool {
        let evict = self.is_full().then(|| self.entries[self.k - 1]);
        if evict.is_some_and(|last| (dist, id) >= (last.dist, last.id)) {
            return false;
        }
        debug_assert!(!self.contains(id), "offer of existing member {id}");
        if let Some(last) = evict {
            self.entries.pop();
            self.members.remove(&last.id);
        }
        let n = Neighbor { id, dist };
        let at = self.insertion_point(n);
        self.entries.insert(at, n);
        self.members.insert(id);
        true
    }

    /// Remove a member (an outgoing NN). Returns its entry if present.
    pub fn remove(&mut self, id: ObjectId) -> Option<Neighbor> {
        if !self.members.remove(&id) {
            return None;
        }
        let idx = self
            .entries
            .iter()
            .position(|e| e.id == id)
            .expect("member set out of sync");
        Some(self.entries.remove(idx))
    }

    /// Update the stored distance of a member that moved but remains in the
    /// result ("update the order in `q.best_NN`", Figure 3.8 line 9).
    ///
    /// The member stays a member, so the set is not touched.
    ///
    /// # Panics
    /// Panics if `id` is not a member.
    pub fn update_dist(&mut self, id: ObjectId, dist: f64) {
        let idx = self
            .entries
            .iter()
            .position(|e| e.id == id)
            .expect("update_dist of non-member");
        self.entries.remove(idx);
        let n = Neighbor { id, dist };
        let at = self.insertion_point(n);
        self.entries.insert(at, n);
    }

    /// Verify internal invariants (test helper).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        assert!(self.entries.len() <= self.k);
        assert_eq!(self.entries.len(), self.members.len());
        for w in self.entries.windows(2) {
            assert!(
                (w[0].dist, w[0].id) <= (w[1].dist, w[1].id),
                "entries out of order"
            );
        }
        for e in &self.entries {
            assert!(self.members.contains(&e.id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fills_then_evicts_worst() {
        let mut l = NeighborList::new(2);
        assert_eq!(l.best_dist(), f64::INFINITY);
        assert!(l.offer(ObjectId(1), 0.5));
        assert!(l.offer(ObjectId(2), 0.3));
        assert!(l.is_full());
        assert_eq!(l.best_dist(), 0.5);
        // Worse candidate rejected.
        assert!(!l.offer(ObjectId(3), 0.6));
        // Better candidate evicts the current 2nd.
        assert!(l.offer(ObjectId(4), 0.1));
        assert_eq!(l.best_dist(), 0.3);
        assert!(!l.contains(ObjectId(1)));
        l.check_invariants();
    }

    #[test]
    fn remove_and_update_dist() {
        let mut l = NeighborList::new(3);
        l.offer(ObjectId(1), 0.1);
        l.offer(ObjectId(2), 0.2);
        l.offer(ObjectId(3), 0.3);
        l.update_dist(ObjectId(1), 0.25);
        assert_eq!(l.neighbors()[1].id, ObjectId(1));
        let removed = l.remove(ObjectId(2)).unwrap();
        assert_eq!(removed.dist, 0.2);
        assert_eq!(l.len(), 2);
        assert_eq!(l.best_dist(), f64::INFINITY); // no longer full
        l.check_invariants();
    }

    #[test]
    fn ties_break_by_id() {
        let mut l = NeighborList::new(2);
        l.offer(ObjectId(9), 0.5);
        l.offer(ObjectId(3), 0.5);
        assert_eq!(l.neighbors()[0].id, ObjectId(3));
        // Equal (dist, id) worse than last => rejected.
        assert!(!l.offer(ObjectId(10), 0.5));
        // Equal dist, smaller id => accepted.
        assert!(l.offer(ObjectId(1), 0.5));
        assert_eq!(l.neighbors()[1].id, ObjectId(3));
    }

    /// Ids of the model-checked stream: few enough that ids recur.
    const POOL: u32 = 32;

    /// The model of a list: `(dist, id)` pairs, sorted, at most `k`.
    fn model_offer(model: &mut Vec<(f64, u32)>, k: usize, dist: f64, id: u32) {
        model.push((dist, id));
        model.sort_by(|a, b| a.partial_cmp(b).unwrap());
        model.truncate(k);
    }

    proptest! {
        /// Every way the engine edits a list — offers, removals and
        /// distance updates, with ids reused and distances tied — against
        /// a sorted `Vec` model. Op 3 is the merge of Figure 3.8: it fills
        /// the list, then offers more than k ids disjoint from it, which
        /// must leave the sorted union cut to k.
        #[test]
        fn mixed_ops_match_a_sorted_model(
            k in 1usize..9,
            ops in proptest::collection::vec((0u8..4, 0u32..POOL, 0u32..6), 0..48),
        ) {
            let tie = |q: u32| f64::from(q) * 0.25;
            let mut l = NeighborList::new(k);
            let mut model: Vec<(f64, u32)> = Vec::new();
            for (op, id, q) in ops {
                let member = model.iter().any(|e| e.1 == id);
                match op {
                    0 if !member => {
                        let changed = l.offer(ObjectId(id), tie(q));
                        model_offer(&mut model, k, tie(q), id);
                        prop_assert_eq!(changed, model.iter().any(|e| e.1 == id));
                    }
                    1 => {
                        let got = l.remove(ObjectId(id)).map(|n| (n.dist, n.id.0));
                        let at = model.iter().position(|e| e.1 == id);
                        prop_assert_eq!(got, at.map(|i| model.remove(i)));
                    }
                    2 if member => {
                        l.update_dist(ObjectId(id), tie(q));
                        model.retain(|e| e.1 != id);
                        model_offer(&mut model, k, tie(q), id);
                    }
                    3 => {
                        let outsiders: Vec<u32> = (0..POOL)
                            .map(|j| (id + j) % POOL)
                            .filter(|o| model.iter().all(|e| e.1 != *o))
                            .collect();
                        let (fill, rest) = outsiders.split_at(k - model.len());
                        let flood = &rest[..k + 1 + q as usize % 3];
                        let at = |o: u32| tie((o * 5 + q) % 6);
                        for &o in fill {
                            l.offer(ObjectId(o), at(o));
                            model_offer(&mut model, k, at(o), o);
                        }
                        prop_assert!(l.is_full());
                        for &o in flood {
                            l.offer(ObjectId(o), at(o));
                            model.push((at(o), o));
                        }
                        model.sort_by(|a, b| a.partial_cmp(b).unwrap());
                        model.truncate(k);
                    }
                    _ => {}
                }
                let got: Vec<(f64, u32)> =
                    l.neighbors().iter().map(|n| (n.dist, n.id.0)).collect();
                prop_assert_eq!(&got, &model);
                let kth = if model.len() == k { model[k - 1].0 } else { f64::INFINITY };
                prop_assert_eq!(l.best_dist(), kth);
                for o in 0..POOL {
                    prop_assert_eq!(l.contains(ObjectId(o)), model.iter().any(|e| e.1 == o));
                }
                l.check_invariants();
            }
        }

        #[test]
        fn offer_stream_matches_sort(
            k in 1usize..8,
            dists in proptest::collection::vec(0.0..1.0f64, 0..64),
        ) {
            let mut l = NeighborList::new(k);
            for (i, d) in dists.iter().enumerate() {
                l.offer(ObjectId(i as u32), *d);
                l.check_invariants();
            }
            let mut expect: Vec<(f64, u32)> = dists
                .iter()
                .enumerate()
                .map(|(i, d)| (*d, i as u32))
                .collect();
            expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
            expect.truncate(k);
            let got: Vec<(f64, u32)> =
                l.neighbors().iter().map(|n| (n.dist, n.id.0)).collect();
            prop_assert_eq!(got, expect);
        }
    }
}
