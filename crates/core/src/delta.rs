//! Per-cycle result deltas: the incremental view of a query's result that
//! the CPM maintenance phase computes for free.
//!
//! Each processing cycle touches a query's `best` list in place (Figure
//! 3.8), so the cycle-start and cycle-end lists are adjacent in memory at
//! the moment maintenance finishes. [`NeighborDelta::diff`] captures the
//! difference as three canonical components; [`NeighborDelta::apply_to`]
//! folds a delta back onto a result replica. The two are exact inverses —
//! folding the delta stream over the initial result reconstructs every
//! per-epoch result **bit-identically** (same ids, same `f64` distance
//! bits, same order), the property the delta-replay suite asserts against
//! the brute-force oracle.
//!
//! Deltas are what a subscription front end ships to clients
//! ([`cpm-sub`]): for `n` queries with mostly-stable results, a delta is
//! O(result churn) while the full list is O(k), which is the difference
//! between shipping a few entries and re-serializing every result every
//! cycle.
//!
//! [`cpm-sub`]: ../../cpm_sub/index.html

use cpm_geom::{ObjectId, QueryId};

use crate::neighbors::Neighbor;

/// The change to one query's result over one processing cycle (epoch).
///
/// All three components are canonical: `added` and `reordered` are in
/// ascending `(dist, id)` order (the result order), `removed` is in the
/// evicted entries' old result order. Equal deltas therefore compare equal
/// with `==`, and the sharded engine's merged delta batches are
/// bit-identical to the sequential engine's.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NeighborDelta {
    /// The cycle that produced this delta (1-based; epoch 0 is the state
    /// before any cycle ran).
    pub epoch: u64,
    /// Entries present at cycle end but not at cycle start.
    pub added: DeltaBuf<Neighbor>,
    /// Objects present at cycle start but evicted by cycle end.
    pub removed: DeltaBuf<ObjectId>,
    /// Entries retained across the cycle whose distance (and therefore
    /// rank) changed — the object moved but stayed in the result. Carries
    /// the **new** distance bits.
    pub reordered: DeltaBuf<Neighbor>,
}

/// Entries kept inline in a [`DeltaBuf`] before it spills to the heap.
const DELTA_BUF_INLINE: usize = 4;

/// A small-buffer vector for delta components.
///
/// The typical per-cycle delta carries one or two entries per component,
/// and the engine materializes hundreds of thousands of deltas per second
/// — heap-allocating three vectors for every one of them is the dominant
/// cost of delta emission. `DeltaBuf` stores a handful of entries inline
/// and only touches the allocator beyond that (bulk churn on range
/// subscriptions). It dereferences to a slice, so reading code treats it
/// exactly like a `Vec`.
#[derive(Clone)]
pub struct DeltaBuf<T: Copy + Default> {
    inline: [T; DELTA_BUF_INLINE],
    len: u8,
    /// Holds *all* entries once in use (the inline buffer is then dead).
    spill: Vec<T>,
}

impl<T: Copy + Default> DeltaBuf<T> {
    /// An empty buffer (no allocation).
    pub fn new() -> Self {
        Self {
            inline: [T::default(); DELTA_BUF_INLINE],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// Append an entry, spilling to the heap past the inline capacity.
    pub fn push(&mut self, value: T) {
        if self.spill.is_empty() {
            if (self.len as usize) < DELTA_BUF_INLINE {
                self.inline[self.len as usize] = value;
                self.len += 1;
                return;
            }
            self.spill.reserve(DELTA_BUF_INLINE * 2);
            self.spill.extend_from_slice(&self.inline);
        }
        self.spill.push(value);
    }

    /// The entries as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        if self.spill.is_empty() {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }

    /// Remove all entries, keeping any spill capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    /// The entries as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        if self.spill.is_empty() {
            &mut self.inline[..self.len as usize]
        } else {
            &mut self.spill
        }
    }
}

impl<T: Copy + Default> Default for DeltaBuf<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default> std::ops::Deref for DeltaBuf<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default> std::ops::DerefMut for DeltaBuf<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default + std::fmt::Debug> std::fmt::Debug for DeltaBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<T: Copy + Default + PartialEq> PartialEq for DeltaBuf<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + PartialEq> PartialEq<Vec<T>> for DeltaBuf<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + PartialEq> PartialEq<&[T]> for DeltaBuf<T> {
    fn eq(&self, other: &&[T]) -> bool {
        self.as_slice() == *other
    }
}

impl<T: Copy + Default> From<Vec<T>> for DeltaBuf<T> {
    fn from(values: Vec<T>) -> Self {
        let mut buf = Self::new();
        for v in values {
            buf.push(v);
        }
        buf
    }
}

impl<T: Copy + Default> FromIterator<T> for DeltaBuf<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut buf = Self::new();
        for v in iter {
            buf.push(v);
        }
        buf
    }
}

impl<T: Copy + Default> Extend<T> for DeltaBuf<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

impl<'a, T: Copy + Default> IntoIterator for &'a DeltaBuf<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl NeighborDelta {
    /// `true` when the delta carries no change (folding it is a no-op).
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.reordered.is_empty()
    }

    /// Total entries across the three components (the "wire size" of the
    /// delta, what [`cpm-sub`] meters).
    ///
    /// [`cpm-sub`]: ../../cpm_sub/index.html
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len() + self.reordered.len()
    }

    /// Compute the delta from `old` to `new`, both ascending by
    /// `(dist, id)` as [`crate::NeighborList`] maintains them. Distances
    /// compare by bit pattern, so a retained object whose recomputed
    /// distance is bit-identical produces no entry.
    ///
    /// Cost is O(result length + window²) where the *window* is the
    /// changed region after trimming the bitwise-equal common prefix and
    /// suffix — typically one or two entries per cycle, so the hot path
    /// is a linear scan. This runs once per changed query per cycle on
    /// the engine's delta path, where the acceptance budget is < 10%
    /// cycle overhead versus full-list results.
    pub fn diff(epoch: u64, old: &[Neighbor], new: &[Neighbor]) -> Self {
        let mut delta = NeighborDelta {
            epoch,
            ..Self::default()
        };
        // Both lists are sorted by (dist, id), so churn is localized:
        // trim the bitwise-equal common prefix and suffix. Ids outside
        // the windows appear identically in both lists, so the membership
        // diff below only needs to look inside them.
        let (old_w, new_w) = trim_common(old, new);
        if old_w.is_empty() && new_w.is_empty() {
            return delta; // bit-identical lists — the hot quiet case
        }

        if old_w.len().max(new_w.len()) <= 32 {
            // Small window: direct membership scans.
            for o in old_w {
                if !new_w.iter().any(|n| n.id == o.id) {
                    delta.removed.push(o.id);
                }
            }
            for n in new_w {
                match old_w.iter().find(|o| o.id == n.id) {
                    None => delta.added.push(*n),
                    Some(o) if o.dist.to_bits() != n.dist.to_bits() => delta.reordered.push(*n),
                    Some(_) => {}
                }
            }
        } else {
            // Wide window (bulk churn, e.g. a moved range region):
            // id-sorted merge instead of the quadratic scan. Removed
            // entries keep their old distance so the canonical (old-order)
            // sort below is a single O(r log r) pass.
            let mut old_ids: Vec<Neighbor> = old_w.to_vec();
            old_ids.sort_unstable_by_key(|n| n.id);
            let mut new_ids: Vec<Neighbor> = new_w.to_vec();
            new_ids.sort_unstable_by_key(|n| n.id);
            let mut removed_pairs: Vec<Neighbor> = Vec::new();
            let (mut i, mut j) = (0, 0);
            while i < old_ids.len() || j < new_ids.len() {
                match (old_ids.get(i), new_ids.get(j)) {
                    (Some(o), Some(n)) if o.id == n.id => {
                        if o.dist.to_bits() != n.dist.to_bits() {
                            delta.reordered.push(*n);
                        }
                        i += 1;
                        j += 1;
                    }
                    (Some(o), Some(n)) if o.id < n.id => {
                        removed_pairs.push(*o);
                        i += 1;
                    }
                    (Some(_), Some(n)) => {
                        delta.added.push(*n);
                        j += 1;
                    }
                    (Some(o), None) => {
                        removed_pairs.push(*o);
                        i += 1;
                    }
                    (None, Some(n)) => {
                        delta.added.push(*n);
                        j += 1;
                    }
                    (None, None) => unreachable!(),
                }
            }
            // Canonicalize to the documented orders (the merge walked in
            // id order; the old-list order is ascending (old dist, id)).
            delta
                .added
                .sort_unstable_by(|a, b| cmp_dist_id(a, b).expect("distances are never NaN"));
            delta
                .reordered
                .sort_unstable_by(|a, b| cmp_dist_id(a, b).expect("distances are never NaN"));
            removed_pairs
                .sort_unstable_by(|a, b| cmp_dist_id(a, b).expect("distances are never NaN"));
            delta.removed.extend(removed_pairs.iter().map(|n| n.id));
        }
        delta
    }

    /// Fold this delta onto `result` (ascending by `(dist, id)`),
    /// producing the cycle-end list bit-identically.
    ///
    /// Replays are order-sensitive: apply deltas in epoch order onto the
    /// result the first delta's cycle started from.
    pub fn apply_to(&self, result: &mut Vec<Neighbor>) {
        if self.is_empty() {
            return;
        }
        result.retain(|n| !self.removed.contains(&n.id));
        for r in &self.reordered {
            let entry = result
                .iter_mut()
                .find(|e| e.id == r.id)
                .expect("reordered entry must be in the replayed result");
            entry.dist = r.dist;
        }
        result.extend_from_slice(&self.added);
        result.sort_unstable_by(|a, b| cmp_dist_id(a, b).expect("distances are never NaN"));
    }
}

impl NeighborDelta {
    /// Compute the delta of one maintenance cycle **without materializing
    /// the cycle-start list** — the engine's hot path.
    ///
    /// The cycle-start ("old") list is defined implicitly by two pieces
    /// that are both cache-hot at finalize time:
    ///
    /// * `pre` — the query's post-departure, pre-resolution result (the
    ///   engine's finalize-phase snapshot, or the final list itself when
    ///   no merge/recompute ran);
    /// * `log` — `(id, cycle-start distance)` for every entry mutated *in
    ///   place* during departure handling, first mutation wins (a handful
    ///   of entries, recorded for free from the values `remove` /
    ///   `update_dist` already return).
    ///
    /// Old ids = pre ids ∪ log ids; an id's old distance is its logged
    /// value if present, else its `pre` distance. `fin` is the cycle-end
    /// list. Equivalent to `diff(materialized_old, fin)` (property-tested
    /// below) while never touching the cold cycle-start buffer a
    /// materializing implementation would have to keep around.
    pub(crate) fn from_log(
        epoch: u64,
        pre: &[Neighbor],
        log: &[(ObjectId, f64)],
        fin: &[Neighbor],
    ) -> Self {
        if log.is_empty() {
            // No in-place mutations: the pre-resolution list *is* the
            // cycle-start list.
            return Self::diff(epoch, pre, fin);
        }
        // Windows of positional churn between pre and fin. Ids outside the
        // windows form bitwise-equal pairs, so only logged ids can carry a
        // change there (handled in the dedicated log pass below).
        let (pre_w, fin_w) = trim_common(pre, fin);
        const SMALL: usize = 32;
        const LOG_SMALL: usize = 8;
        if pre_w.len() <= SMALL && fin_w.len() <= SMALL && log.len() <= LOG_SMALL {
            return Self::from_log_small(epoch, pre, log, pre_w, fin_w);
        }
        Self::from_log_general(epoch, pre, log, pre_w, fin_w)
    }

    /// The k-NN-sized hot path of [`NeighborDelta::from_log`]: membership
    /// tests run on stack-resident `u32` id arrays and the `removed`
    /// component is ordered on the stack with its old distances in hand,
    /// so the only heap traffic is the delta's own component vectors.
    fn from_log_small(
        epoch: u64,
        pre: &[Neighbor],
        log: &[(ObjectId, f64)],
        pre_w: &[Neighbor],
        fin_w: &[Neighbor],
    ) -> Self {
        let mut delta = NeighborDelta {
            epoch,
            ..Self::default()
        };
        let logged = |id: ObjectId| log.iter().find(|&&(l, _)| l == id).map(|&(_, d)| d);

        let mut pre_ids = [0u32; 32];
        for (i, o) in pre_w.iter().enumerate() {
            pre_ids[i] = o.id.0;
        }
        let pre_ids = &pre_ids[..pre_w.len()];
        let mut fin_ids = [0u32; 32];
        for (i, f) in fin_w.iter().enumerate() {
            fin_ids[i] = f.id.0;
        }
        let fin_ids = &fin_ids[..fin_w.len()];

        // Removed entries carry their cycle-start distance so the
        // canonical (old-order) sort below needs no lookups.
        let mut removed = [Neighbor {
            id: ObjectId(0),
            dist: 0.0,
        }; 40];
        let mut n_removed = 0usize;

        for f in fin_w {
            let old_dist = logged(f.id).or_else(|| {
                pre_ids
                    .iter()
                    .position(|&x| x == f.id.0)
                    .map(|i| pre_w[i].dist)
            });
            match old_dist {
                None => delta.added.push(*f),
                Some(od) if od.to_bits() != f.dist.to_bits() => delta.reordered.push(*f),
                Some(_) => {}
            }
        }
        for o in pre_w {
            if !fin_ids.contains(&o.id.0) {
                removed[n_removed] = Neighbor {
                    id: o.id,
                    dist: logged(o.id).unwrap_or(o.dist),
                };
                n_removed += 1;
            }
        }
        // Logged ids the windows did not see: either they sit in the
        // common region (survived with an unchanged post-departure
        // distance — still reordered versus their cycle-start distance),
        // or they were removed in place and never resurfaced.
        let mut appended_reorder = false;
        for &(lid, ld) in log {
            if pre_ids.contains(&lid.0) || fin_ids.contains(&lid.0) {
                continue;
            }
            match pre.iter().find(|o| o.id == lid) {
                Some(o) if o.dist.to_bits() != ld.to_bits() => {
                    delta.reordered.push(*o);
                    appended_reorder = true;
                }
                Some(_) => {}
                None => {
                    removed[n_removed] = Neighbor { id: lid, dist: ld };
                    n_removed += 1;
                }
            }
        }
        if appended_reorder {
            delta
                .reordered
                .sort_unstable_by(|a, b| cmp_dist_id(a, b).expect("distances are never NaN"));
        }
        // Canonical removed order = the old list's order, i.e. ascending
        // by (cycle-start distance, id).
        let removed = &mut removed[..n_removed];
        removed.sort_unstable_by(|a, b| cmp_dist_id(a, b).expect("distances are never NaN"));
        delta.removed.extend(removed.iter().map(|n| n.id));
        delta
    }

    /// Fallback for wide windows or long logs (bulk churn on range
    /// subscriptions): plain slice scans, no stack caps.
    fn from_log_general(
        epoch: u64,
        pre: &[Neighbor],
        log: &[(ObjectId, f64)],
        pre_w: &[Neighbor],
        fin_w: &[Neighbor],
    ) -> Self {
        let mut delta = NeighborDelta {
            epoch,
            ..Self::default()
        };
        let logged = |id: ObjectId| log.iter().find(|&&(l, _)| l == id).map(|&(_, d)| d);

        for f in fin_w {
            let old_dist =
                logged(f.id).or_else(|| pre_w.iter().find(|o| o.id == f.id).map(|o| o.dist));
            match old_dist {
                None => delta.added.push(*f),
                Some(od) if od.to_bits() != f.dist.to_bits() => delta.reordered.push(*f),
                Some(_) => {}
            }
        }
        // Removed entries carry their cycle-start distance so the
        // canonical (old-order) sort below is a single O(r log r) pass.
        let mut removed_pairs: Vec<Neighbor> = Vec::new();
        for o in pre_w {
            if !fin_w.iter().any(|f| f.id == o.id) {
                removed_pairs.push(Neighbor {
                    id: o.id,
                    dist: logged(o.id).unwrap_or(o.dist),
                });
            }
        }
        let mut appended_reorder = false;
        for &(lid, ld) in log {
            if pre_w.iter().any(|o| o.id == lid) || fin_w.iter().any(|f| f.id == lid) {
                continue;
            }
            match pre.iter().find(|o| o.id == lid) {
                Some(o) if o.dist.to_bits() != ld.to_bits() => {
                    delta.reordered.push(*o);
                    appended_reorder = true;
                }
                Some(_) => {}
                None => removed_pairs.push(Neighbor { id: lid, dist: ld }),
            }
        }
        if appended_reorder {
            delta
                .reordered
                .sort_unstable_by(|a, b| cmp_dist_id(a, b).expect("distances are never NaN"));
        }
        removed_pairs.sort_unstable_by(|a, b| cmp_dist_id(a, b).expect("distances are never NaN"));
        delta.removed.extend(removed_pairs.iter().map(|n| n.id));
        delta
    }
}

/// Trim the bitwise-equal common prefix and suffix of two `(dist, id)`
/// sorted result lists, returning the changed windows.
#[inline]
fn trim_common<'a>(old: &'a [Neighbor], new: &'a [Neighbor]) -> (&'a [Neighbor], &'a [Neighbor]) {
    let eq = |o: &Neighbor, n: &Neighbor| o.id == n.id && o.dist.to_bits() == n.dist.to_bits();
    let mut start = 0;
    while start < old.len() && start < new.len() && eq(&old[start], &new[start]) {
        start += 1;
    }
    let (mut old_end, mut new_end) = (old.len(), new.len());
    while old_end > start && new_end > start && eq(&old[old_end - 1], &new[new_end - 1]) {
        old_end -= 1;
        new_end -= 1;
    }
    (&old[start..old_end], &new[start..new_end])
}

#[inline]
fn cmp_dist_id(a: &Neighbor, b: &Neighbor) -> Option<std::cmp::Ordering> {
    (a.dist, a.id).partial_cmp(&(b.dist, b.id))
}

/// One processing cycle's full delta output, as returned by
/// `process_cycle_with_deltas` on both the sequential and the sharded
/// engine.
///
/// `deltas` holds at most one entry per query, ascending by query id (the
/// sharded engine merges per-shard outputs into this canonical order, so
/// the batch is bit-identical across shard counts). `changed` is the same
/// changed-query list `process_cycle` reports; a changed query whose final
/// list is bit-identical to its cycle-start list (an object moved without
/// altering any stored distance bits) appears in `changed` but produces no
/// delta.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CycleDeltas {
    /// The cycle number that produced this batch (1-based).
    pub epoch: u64,
    /// Queries whose result changed, ascending by id.
    pub changed: Vec<QueryId>,
    /// Per-query deltas, ascending by query id; empty deltas are omitted.
    pub deltas: Vec<(QueryId, NeighborDelta)>,
}

impl CycleDeltas {
    /// Canonicalize a freshly filled batch: sort the deltas by query id
    /// (a core emits them in query-table slot order — id order for
    /// queries installed in ascending id order into never-reused slots —
    /// then the query-event deltas; deltas are fat, so only sort when
    /// actually needed) and stamp the epoch. Used by both engines so the
    /// canonical-order contract cannot drift between them.
    ///
    /// One delta per query per cycle: callers must not submit two events
    /// for the same query in one batch (the subscription hub enforces
    /// this; replaying duplicate epochs breaks client folds).
    pub(crate) fn canonicalize(&mut self, epoch: u64) {
        if !self.deltas.windows(2).all(|w| w[0].0 <= w[1].0) {
            self.deltas.sort_unstable_by_key(|(qid, _)| *qid);
        }
        debug_assert!(
            self.deltas.windows(2).all(|w| w[0].0 != w[1].0),
            "duplicate query events in one batch produced duplicate deltas"
        );
        self.epoch = epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(id: u32, dist: f64) -> Neighbor {
        Neighbor {
            id: ObjectId(id),
            dist,
        }
    }

    #[test]
    fn diff_classifies_add_remove_reorder() {
        let old = [n(1, 0.1), n(2, 0.2), n(3, 0.3)];
        let new = [n(2, 0.05), n(4, 0.15), n(3, 0.3)];
        let d = NeighborDelta::diff(7, &old, &new);
        assert_eq!(d.epoch, 7);
        assert_eq!(d.removed, vec![ObjectId(1)]);
        assert_eq!(d.added, vec![n(4, 0.15)]);
        assert_eq!(d.reordered, vec![n(2, 0.05)]);
        assert_eq!(d.len(), 3);
        let mut replica = old.to_vec();
        d.apply_to(&mut replica);
        assert_eq!(replica, new);
    }

    #[test]
    fn identical_lists_produce_empty_delta() {
        let list = [n(5, 0.4), n(9, 0.8)];
        let d = NeighborDelta::diff(1, &list, &list);
        assert!(d.is_empty());
        let mut replica = list.to_vec();
        d.apply_to(&mut replica);
        assert_eq!(replica, list);
    }

    /// `from_log` must agree exactly with the reference semantics:
    /// materialize the cycle-start list from (pre, log) and diff it.
    #[test]
    fn from_log_matches_materialized_diff() {
        fn canon(ids: &[u32], dists: &[f64]) -> Vec<Neighbor> {
            let mut out: Vec<Neighbor> = ids
                .iter()
                .zip(dists.iter().cycle())
                .map(|(&id, &d)| n(id, d))
                .collect();
            out.sort_unstable_by_key(|e| e.id);
            out.dedup_by_key(|e| e.id);
            out.sort_unstable_by(|a, b| cmp_dist_id(a, b).unwrap());
            out
        }
        let mut runner = proptest::test_runner::TestRunner::default();
        runner
            .run(
                &(
                    proptest::collection::vec(0u32..60, 0..40),
                    proptest::collection::vec(0.0..1.0f64, 1..40),
                    proptest::collection::vec(0u32..60, 0..40),
                    proptest::collection::vec(0.0..1.0f64, 1..40),
                    proptest::collection::vec((0u32..60, 0.0..1.0f64), 0..8),
                ),
                |(pre_ids, pre_d, fin_ids, fin_d, raw_log)| {
                    let pre = canon(&pre_ids, &pre_d);
                    let fin = canon(&fin_ids, &fin_d);
                    let mut log: Vec<(ObjectId, f64)> = Vec::new();
                    for (id, d) in raw_log {
                        if log.iter().all(|&(l, _)| l != ObjectId(id)) {
                            log.push((ObjectId(id), d));
                        }
                    }
                    // Reference: the cycle-start list implied by (pre, log).
                    let mut old: Vec<Neighbor> = pre
                        .iter()
                        .map(|o| Neighbor {
                            id: o.id,
                            dist: log
                                .iter()
                                .find(|&&(l, _)| l == o.id)
                                .map(|&(_, d)| d)
                                .unwrap_or(o.dist),
                        })
                        .collect();
                    for &(lid, ld) in &log {
                        if pre.iter().all(|o| o.id != lid) {
                            old.push(Neighbor { id: lid, dist: ld });
                        }
                    }
                    old.sort_unstable_by(|a, b| cmp_dist_id(a, b).unwrap());

                    let fast = NeighborDelta::from_log(5, &pre, &log, &fin);
                    let reference = NeighborDelta::diff(5, &old, &fin);
                    prop_assert_eq!(
                        &fast,
                        &reference,
                        "pre {:?} log {:?} fin {:?} old {:?}",
                        pre,
                        log,
                        fin,
                        old
                    );
                    // And the fast delta folds the old list onto fin.
                    let mut replica = old.clone();
                    fast.apply_to(&mut replica);
                    prop_assert_eq!(replica, fin);
                    Ok(())
                },
            )
            .unwrap();
    }

    /// Random old/new pairs — including the >32-entry merge path — must
    /// round-trip bit-identically through diff + apply.
    #[test]
    fn diff_apply_roundtrip_property() {
        fn build(ids: &[u32], dists: &[f64]) -> Vec<Neighbor> {
            let mut out: Vec<Neighbor> = ids
                .iter()
                .zip(dists.iter().cycle())
                .map(|(&id, &d)| n(id, d))
                .collect();
            // Result lists hold each id at most once; dedup by id first,
            // then order by (dist, id) as NeighborList does.
            out.sort_unstable_by_key(|e| e.id);
            out.dedup_by_key(|e| e.id);
            out.sort_unstable_by(|a, b| cmp_dist_id(a, b).unwrap());
            out
        }
        let mut runner = proptest::test_runner::TestRunner::default();
        runner
            .run(
                &(
                    proptest::collection::vec(0u32..120, 0..64),
                    proptest::collection::vec(0.0..1.0f64, 1..64),
                    proptest::collection::vec(0u32..120, 0..64),
                    proptest::collection::vec(0.0..1.0f64, 1..64),
                ),
                |(old_ids, old_d, new_ids, new_d)| {
                    let old = build(&old_ids, &old_d);
                    let new = build(&new_ids, &new_d);
                    let d = NeighborDelta::diff(3, &old, &new);
                    let mut replica = old.clone();
                    d.apply_to(&mut replica);
                    prop_assert_eq!(&replica, &new, "delta {:?} old {:?}", d, old);
                    prop_assert_eq!(d.is_empty(), old == new);
                    // Components are disjoint by id.
                    for a in &d.added {
                        prop_assert!(!d.removed.contains(&a.id));
                        prop_assert!(d.reordered.iter().all(|r| r.id != a.id));
                    }
                    Ok(())
                },
            )
            .unwrap();
    }
}
