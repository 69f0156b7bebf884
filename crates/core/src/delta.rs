//! Per-cycle result deltas: the incremental view of a query's result that
//! the CPM maintenance phase computes almost for free.
//!
//! Each processing cycle touches a query's `best` list in place (Figure
//! 3.8) and resolves one query at a time, so the engine keeps one scratch
//! copy of the cycle-start list — taken just before the query's first
//! change — and both lists are cache-hot when its resolution ends.
//! [`NeighborDelta::diff`] captures the difference as three canonical
//! components; [`NeighborDelta::apply_to`] folds a delta back onto a
//! result replica. Both lists ascend by `(dist, id)`, which makes both
//! operations linear in the list lengths (expected: ids are joined
//! through a small hash table), with one code path for a k = 1 result
//! and a range result of hundreds. The two are exact inverses —
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

use std::cell::Cell;

use cpm_geom::{ObjectId, QueryId};

use crate::neighbors::Neighbor;

/// The change to one query's result over one processing cycle (epoch).
///
/// All three components are canonical: `added` and `reordered` are in
/// ascending `(dist, id)` order (the result order), `removed` is in the
/// evicted entries' old result order. Equal deltas therefore compare equal
/// with `==`, and the engine's delta batches are bit-identical at every
/// thread count.
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
            if self.spill.capacity() == 0 {
                self.spill.reserve(DELTA_BUF_INLINE * 2);
            }
            self.spill.extend_from_slice(&self.inline);
        }
        self.spill.push(value);
    }

    /// Make room for `additional` more entries, so that pushing them
    /// allocates at most once (not at all while they fit inline).
    pub fn reserve(&mut self, additional: usize) {
        let len = self.len();
        if len + additional > DELTA_BUF_INLINE {
            self.spill.reserve(len + additional - self.spill.len());
        }
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
        values.into_iter().collect()
    }
}

impl<T: Copy + Default> FromIterator<T> for DeltaBuf<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut buf = Self::new();
        buf.extend(iter);
        buf
    }
}

impl<T: Copy + Default> Extend<T> for DeltaBuf<T> {
    /// Reserves the iterator's lower size bound first.
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        self.reserve(iter.size_hint().0);
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
    /// `(dist, id)` and duplicate-free by id, as [`crate::NeighborList`]
    /// maintains them. Distances compare by bit pattern, so a retained
    /// object whose recomputed distance is bit-identical produces no entry.
    ///
    /// One merge walk over the two lists pairs every entry that is equal
    /// in both (id and distance bits); what it leaves unmatched is joined
    /// by id through a small hash table and handed out in list order, which
    /// is the canonical order of all three components. Expected cost is
    /// O(|old| + |new|) for every list length. The walk and the join work
    /// in `scratch`, so once its buffers have grown a diff allocates
    /// nothing beyond the delta's own components — this runs once per
    /// affected query per cycle on the engine's delta path.
    pub fn diff(
        epoch: u64,
        old: &[Neighbor],
        new: &[Neighbor],
        scratch: &mut DeltaScratch,
    ) -> Self {
        let mut delta = NeighborDelta {
            epoch,
            ..Self::default()
        };
        // The walk. Both lists ascend by (dist, id), so an entry that is
        // bitwise equal in both meets itself; the indices of all others
        // are kept, each side in its list's order. An index's top bit is
        // free for the join below to mark a match in.
        const MATCHED: u32 = 1 << 31;
        assert!(old.len().max(new.len()) < MATCHED as usize);
        let (mut i, mut j) = (0, 0);
        let DeltaScratch {
            slots,
            un_old,
            un_new,
        } = scratch;
        un_old.clear();
        un_new.clear();
        while i < old.len() && j < new.len() {
            let (o, n) = (&old[i], &new[j]);
            if o.id == n.id && o.dist.to_bits() == n.dist.to_bits() {
                i += 1;
                j += 1;
            } else if (o.dist, o.id) < (n.dist, n.id) {
                un_old.push(i as u32);
                i += 1;
            } else {
                un_new.push(j as u32);
                j += 1;
            }
        }
        un_old.extend(i as u32..old.len() as u32);
        un_new.extend(j as u32..new.len() as u32);

        // The join: an id left over on both sides was reordered, on one
        // side only it was removed or added.
        let table = IdTable::new(
            slots,
            un_old.len(),
            un_old.iter().map(|&i| old[i as usize].id),
        );
        let mut reordered = 0;
        for j in un_new.iter_mut() {
            if let Some(at) = table.position(new[*j as usize].id) {
                un_old[at] |= MATCHED;
                *j |= MATCHED;
                reordered += 1;
            }
        }

        delta.removed.reserve(un_old.len() - reordered);
        delta.reordered.reserve(reordered);
        delta.added.reserve(un_new.len() - reordered);
        for &i in un_old.iter().filter(|&&i| i & MATCHED == 0) {
            delta.removed.push(old[i as usize].id);
        }
        for &j in un_new.iter() {
            let entry = new[(j & !MATCHED) as usize];
            if j & MATCHED != 0 {
                delta.reordered.push(entry);
            } else {
                delta.added.push(entry);
            }
        }
        delta
    }

    /// Fold this delta onto `result` (ascending by `(dist, id)`),
    /// producing the cycle-end list bit-identically. `added` and
    /// `reordered` must ascend by `(dist, id)`, as [`NeighborDelta::diff`]
    /// emits them; `removed` may come in any order and may name ids that
    /// are not in `result`.
    ///
    /// One pass drops the removed and the reordered ids (looked up in a
    /// small hash table), then the survivors, `reordered` and `added` —
    /// three sorted runs — are merged back to front in place: expected
    /// O(|result| + |delta|), with no sort and no allocation unless
    /// `result` itself has to grow.
    ///
    /// Replays are order-sensitive: apply deltas in epoch order onto the
    /// result the first delta's cycle started from.
    ///
    /// # Panics
    /// Panics if a `reordered` id is not in `result`.
    pub fn apply_to(&self, result: &mut Vec<Neighbor>) {
        if self.is_empty() {
            return;
        }
        // The components as plain slices: a `DeltaBuf` decides between its
        // inline and its spilled storage on every dereference.
        let (removed, reordered, added): (&[ObjectId], &[Neighbor], &[Neighbor]) =
            (&self.removed, &self.reordered, &self.added);
        let mut slots = APPLY_SLOTS.take();
        let leaving = IdTable::new(
            &mut slots,
            removed.len() + reordered.len(),
            (removed.iter().copied()).chain(reordered.iter().map(|r| r.id)),
        );
        let mut reordered_found = 0;
        result.retain(|n| match leaving.position(n.id) {
            Some(at) => {
                reordered_found += usize::from(at >= removed.len());
                false
            }
            None => true,
        });
        assert!(
            reordered_found == reordered.len(),
            "reordered entry must be in the replayed result"
        );
        APPLY_SLOTS.set(slots);

        // Back to front, the largest of the three tails goes last; the
        // write position never overtakes the survivors still to be moved.
        let after = |a: &Neighbor, b: &Neighbor| (a.dist, a.id) > (b.dist, b.id);
        let (mut s, mut r, mut a) = (result.len(), reordered.len(), added.len());
        result.resize(s + r + a, Neighbor::default());
        while r + a > 0 {
            let from_reordered = a == 0 || (r > 0 && after(&reordered[r - 1], &added[a - 1]));
            let incoming = if from_reordered {
                reordered[r - 1]
            } else {
                added[a - 1]
            };
            let at = s + r + a - 1;
            if s > 0 && after(&result[s - 1], &incoming) {
                result[at] = result[s - 1];
                s -= 1;
            } else {
                result[at] = incoming;
                if from_reordered {
                    r -= 1;
                } else {
                    a -= 1;
                }
            }
        }
    }
}

/// The buffers of [`NeighborDelta::diff`], owned by the caller so that a
/// diff allocates nothing beyond the delta's own components once they
/// have grown: the engine keeps one per worker, reused every cycle.
#[derive(Debug, Default)]
pub struct DeltaScratch {
    /// Slot storage of the call's [`IdTable`].
    slots: Vec<u64>,
    /// Indices of the entries the walk left unmatched, per list.
    un_old: Vec<u32>,
    un_new: Vec<u32>,
}

thread_local! {
    /// The [`IdTable`] slots of [`NeighborDelta::apply_to`], recycled per
    /// thread (replicas fold on their subscriber's long-lived thread): taken
    /// at entry and put back at exit, so a call that panics loses them and
    /// the next one starts from an empty buffer.
    static APPLY_SLOTS: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
}

/// `id ↦ position` over a short id sequence: open addressing with linear
/// probing at a load of at most one half, so a lookup is O(1) expected.
/// A slot holds `id << 32 | position + 1`; zero is vacant. With a
/// repeated id the first position wins.
struct IdTable<'a> {
    slots: &'a [u64],
    /// `32 - log2(slots.len())`: the home slot is the top bits of a
    /// multiplicative hash.
    shift: u32,
}

impl<'a> IdTable<'a> {
    /// A table in `storage` over `ids`, which yields `count` ids.
    fn new(storage: &'a mut Vec<u64>, count: usize, ids: impl Iterator<Item = ObjectId>) -> Self {
        assert!(count < u32::MAX as usize, "position + 1 must fit a slot");
        let len = (2 * count).next_power_of_two().max(2);
        let shift = 32 - len.trailing_zeros();
        storage.clear();
        storage.resize(len, 0);
        for (position, id) in ids.enumerate() {
            let mut at = Self::home(id, shift);
            while storage[at] != 0 {
                at = (at + 1) & (len - 1);
            }
            storage[at] = u64::from(id.0) << 32 | (position as u64 + 1);
        }
        IdTable {
            slots: storage,
            shift,
        }
    }

    #[inline]
    fn home(id: ObjectId, shift: u32) -> usize {
        (id.0.wrapping_mul(0x9E37_79B9) >> shift) as usize
    }

    #[inline]
    fn position(&self, id: ObjectId) -> Option<usize> {
        let mut at = Self::home(id, self.shift);
        loop {
            let slot = self.slots[at];
            if slot == 0 {
                return None;
            }
            if (slot >> 32) as u32 == id.0 {
                return Some((slot as u32 - 1) as usize);
            }
            at = (at + 1) & (self.slots.len() - 1);
        }
    }
}

/// One processing cycle's full delta output, as the engine's
/// `process_cycle_with_deltas_into` writes it.
///
/// `deltas` holds at most one entry per query, ascending by query id (the
/// engine concatenates its workers' outputs in slot and event order and
/// sorts them into this canonical order, so the batch is bit-identical at
/// every thread count). `changed` is the same
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
    /// (the engine emits them in query-table slot order — id order for
    /// queries installed in ascending id order into never-reused slots —
    /// then the query-event deltas; deltas are fat, so only sort when
    /// actually needed) and stamp the epoch.
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

    fn cmp_dist_id(a: &Neighbor, b: &Neighbor) -> Option<std::cmp::Ordering> {
        (a.dist, a.id).partial_cmp(&(b.dist, b.id))
    }

    /// A duplicate-free result list ordered as `NeighborList` orders it,
    /// over eight distinct distances — most entries tie with many others.
    fn tie_heavy_list(ids: &[u32], eighths: &[u32]) -> Vec<Neighbor> {
        let dists = eighths.iter().cycle().map(|&e| f64::from(e) / 8.0);
        let mut out: Vec<Neighbor> = ids.iter().zip(dists).map(|(&id, d)| n(id, d)).collect();
        out.sort_unstable_by_key(|e| e.id);
        out.dedup_by_key(|e| e.id);
        out.sort_unstable_by(|a, b| cmp_dist_id(a, b).unwrap());
        out
    }

    /// Two tie-heavy lists of 0–300 entries over one id universe.
    #[allow(clippy::type_complexity)]
    fn list_pairs() -> impl Strategy<Value = (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>)> {
        (
            proptest::collection::vec(0u32..400, 0..300),
            proptest::collection::vec(0u32..8, 1..300),
            proptest::collection::vec(0u32..400, 0..300),
            proptest::collection::vec(0u32..8, 1..300),
        )
    }

    /// The membership diff by nested scans: what `diff` must equal.
    fn diff_reference(epoch: u64, old: &[Neighbor], new: &[Neighbor]) -> NeighborDelta {
        let mut delta = NeighborDelta {
            epoch,
            ..NeighborDelta::default()
        };
        for o in old {
            if !new.iter().any(|n| n.id == o.id) {
                delta.removed.push(o.id);
            }
        }
        for n in new {
            match old.iter().find(|o| o.id == n.id) {
                None => delta.added.push(*n),
                Some(o) if o.dist.to_bits() != n.dist.to_bits() => delta.reordered.push(*n),
                Some(_) => {}
            }
        }
        delta
    }

    /// The fold as `retain` × `contains`, a `find` per reordered entry and
    /// a full sort: what `apply_to` must equal.
    fn apply_reference(delta: &NeighborDelta, result: &mut Vec<Neighbor>) {
        if delta.is_empty() {
            return;
        }
        result.retain(|n| !delta.removed.contains(&n.id));
        for r in &delta.reordered {
            let entry = result
                .iter_mut()
                .find(|e| e.id == r.id)
                .expect("reordered entry must be in the replayed result");
            entry.dist = r.dist;
        }
        result.extend_from_slice(&delta.added);
        result.sort_unstable_by(|a, b| cmp_dist_id(a, b).expect("distances are never NaN"));
    }

    #[test]
    fn diff_classifies_add_remove_reorder() {
        let old = [n(1, 0.1), n(2, 0.2), n(3, 0.3)];
        let new = [n(2, 0.05), n(4, 0.15), n(3, 0.3)];
        let d = NeighborDelta::diff(7, &old, &new, &mut DeltaScratch::default());
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
        let d = NeighborDelta::diff(1, &list, &list, &mut DeltaScratch::default());
        assert!(d.is_empty());
        let mut replica = list.to_vec();
        d.apply_to(&mut replica);
        assert_eq!(replica, list);
    }

    #[test]
    fn reserve_sizes_the_spill_once() {
        let mut buf: DeltaBuf<u32> = DeltaBuf::new();
        buf.reserve(DELTA_BUF_INLINE);
        assert_eq!(buf.spill.capacity(), 0, "inline entries need no heap");
        buf.extend(0..3);
        buf.reserve(40);
        let cap = buf.spill.capacity();
        assert!(cap >= 43);
        buf.extend(3..43);
        assert_eq!(buf.spill.capacity(), cap);
        assert_eq!(buf.as_slice(), (0..43).collect::<Vec<u32>>());
        // A cleared buffer keeps its capacity and refills through the
        // inline entries without touching the allocator.
        buf.clear();
        buf.extend(0..43);
        assert_eq!(buf.spill.capacity(), cap);
        assert_eq!(buf.len(), 43);
    }

    /// Random old/new pairs of up to 300 entries must produce the
    /// reference delta, in canonical order, and round-trip bit-identically
    /// through diff + apply.
    #[test]
    fn diff_apply_roundtrip_property() {
        let mut runner = proptest::test_runner::TestRunner::default();
        runner
            .run(&list_pairs(), |(old_ids, old_d, new_ids, new_d)| {
                let old = tie_heavy_list(&old_ids, &old_d);
                let new = tie_heavy_list(&new_ids, &new_d);
                let d = NeighborDelta::diff(3, &old, &new, &mut DeltaScratch::default());
                prop_assert_eq!(&d, &diff_reference(3, &old, &new), "old {:?}", old);
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
            })
            .unwrap();
    }

    /// `apply_to` against the reference fold, with `removed` also naming
    /// ids the result never held and arriving in shuffled order.
    #[test]
    fn apply_to_matches_the_reference_fold() {
        let mut runner = proptest::test_runner::TestRunner::default();
        runner
            .run(
                &(
                    list_pairs(),
                    proptest::collection::vec(400u32..500, 0..20),
                    any::<u32>(),
                ),
                |((old_ids, old_d, new_ids, new_d), absent, salt)| {
                    let old = tie_heavy_list(&old_ids, &old_d);
                    let new = tie_heavy_list(&new_ids, &new_d);
                    let mut d = NeighborDelta::diff(3, &old, &new, &mut DeltaScratch::default());
                    let mut removed: Vec<ObjectId> = d.removed.to_vec();
                    removed.extend(absent.into_iter().map(ObjectId));
                    removed.sort_unstable_by_key(|id| id.0.wrapping_mul(salt | 1));
                    d.removed = removed.into();

                    let mut expected = old.clone();
                    apply_reference(&d, &mut expected);
                    let mut folded = old.clone();
                    d.apply_to(&mut folded);
                    prop_assert_eq!(&folded, &expected, "delta {:?} old {:?}", d, old);
                    prop_assert_eq!(&folded, &new);
                    Ok(())
                },
            )
            .unwrap();
    }

    /// A `reordered` id the result does not hold is a protocol violation:
    /// same panic, same message as the reference fold.
    #[test]
    fn missing_reordered_id_panics_like_the_reference() {
        let delta = NeighborDelta {
            epoch: 1,
            reordered: vec![n(2, 0.25), n(9, 0.5)].into(),
            ..NeighborDelta::default()
        };
        let message = |fold: fn(&NeighborDelta, &mut Vec<Neighbor>)| {
            let delta = delta.clone();
            let panic = std::panic::catch_unwind(move || {
                fold(&delta, &mut vec![n(1, 0.125), n(2, 0.375), n(3, 0.5)]);
            })
            .expect_err("the fold must refuse an absent reordered id");
            panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .expect("a string panic payload")
        };
        let expected = message(apply_reference);
        assert_eq!(expected, "reordered entry must be in the replayed result");
        assert_eq!(message(NeighborDelta::apply_to), expected);
    }
}
