//! The capped incoming-object list of batched update handling
//! (`q.in_list`, Figure 3.8).

use cpm_geom::ObjectId;

use crate::neighbors::Neighbor;

/// The sorted list of the k best *incoming* objects collected while
/// processing an update batch (`q.in_list` of Figure 3.8).
///
/// Capped at `k` entries: the merged result can absorb at most `k`
/// incomers. Entries are keyed by object id so repeated updates of one
/// object within a batch replace rather than duplicate (the paper assumes
/// one update per object per cycle; we stay correct without it — see
/// [`InList::evicted_since_clear`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct InList {
    cap: usize,
    entries: Vec<Neighbor>,
    /// `true` if any candidate has been dropped because the list was full.
    /// If a later removal hits the list after an eviction, the dropped
    /// candidate might have belonged in the merge set, so update handling
    /// must fall back to re-computation.
    evicted: bool,
}

impl InList {
    pub(crate) fn with_cap(cap: usize) -> Self {
        Self {
            cap,
            entries: Vec::new(),
            evicted: false,
        }
    }

    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.evicted = false;
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn entries(&self) -> &[Neighbor] {
        &self.entries
    }

    pub(crate) fn evicted_since_clear(&self) -> bool {
        self.evicted
    }

    /// Remove the entry for `id`, if present. Returns `true` if removed.
    pub(crate) fn remove(&mut self, id: ObjectId) -> bool {
        if let Some(pos) = self.entries.iter().position(|e| e.id == id) {
            self.entries.remove(pos);
            true
        } else {
            false
        }
    }

    /// Insert or replace the entry for `id`, keeping the best `cap`
    /// candidates by `(dist, id)`.
    pub(crate) fn update(&mut self, id: ObjectId, dist: f64) {
        self.remove(id);
        let at = self
            .entries
            .partition_point(|e| (e.dist, e.id) < (dist, id));
        if at == self.cap {
            self.evicted = true;
            return; // worse than all retained candidates
        }
        self.entries.insert(at, Neighbor { id, dist });
        if self.entries.len() > self.cap {
            self.entries.pop();
            self.evicted = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_best_cap_by_distance() {
        let mut l = InList::with_cap(2);
        l.update(ObjectId(1), 0.5);
        l.update(ObjectId(2), 0.3);
        l.update(ObjectId(3), 0.4); // evicts 0.5
        assert_eq!(l.len(), 2);
        assert!(l.evicted_since_clear());
        let ids: Vec<u32> = l.entries().iter().map(|e| e.id.0).collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn replaces_on_repeated_update() {
        let mut l = InList::with_cap(4);
        l.update(ObjectId(1), 0.5);
        l.update(ObjectId(1), 0.1);
        assert_eq!(l.len(), 1);
        assert_eq!(l.entries()[0].dist, 0.1);
        assert!(l.remove(ObjectId(1)));
        assert!(!l.remove(ObjectId(1)));
        assert!(!l.evicted_since_clear());
    }

    #[test]
    fn worse_than_full_list_sets_evicted() {
        let mut l = InList::with_cap(1);
        l.update(ObjectId(1), 0.1);
        l.update(ObjectId(2), 0.9);
        assert_eq!(l.len(), 1);
        assert_eq!(l.entries()[0].id, ObjectId(1));
        assert!(l.evicted_since_clear());
        l.clear();
        assert!(!l.evicted_since_clear());
    }
}
