//! The capped incoming-object list of batched update handling
//! (`q.in_list`, Figure 3.8).

use cpm_geom::ObjectId;

use crate::neighbors::Neighbor;

/// The sorted list of the k best *incoming* objects collected while
/// processing an update batch (`q.in_list` of Figure 3.8).
///
/// Capped at `k` entries: the merged result can absorb at most `k`
/// incomers. A batch holds one event per object (the paper's update
/// model, which the server enforces), so an id arrives at most once per
/// query and never leaves again in the same batch: a dropped candidate
/// can never be needed.
#[derive(Debug, Clone, Default)]
pub(crate) struct InList {
    cap: usize,
    entries: Vec<Neighbor>,
}

impl InList {
    pub(crate) fn with_cap(cap: usize) -> Self {
        Self {
            cap,
            entries: Vec::new(),
        }
    }

    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn entries(&self) -> &[Neighbor] {
        &self.entries
    }

    /// Insert the entry for `id`, keeping the best `cap` candidates by
    /// `(dist, id)`.
    pub(crate) fn insert(&mut self, id: ObjectId, dist: f64) {
        let at = self
            .entries
            .partition_point(|e| (e.dist, e.id) < (dist, id));
        if at == self.cap {
            return; // worse than all retained candidates
        }
        self.entries.insert(at, Neighbor { id, dist });
        self.entries.truncate(self.cap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_best_cap_by_distance() {
        let mut l = InList::with_cap(2);
        l.insert(ObjectId(1), 0.5);
        l.insert(ObjectId(2), 0.3);
        l.insert(ObjectId(3), 0.4); // evicts 0.5
        l.insert(ObjectId(4), 0.9); // worse than both
        let ids: Vec<u32> = l.entries().iter().map(|e| e.id.0).collect();
        assert_eq!(ids, vec![2, 3]);
        l.clear();
        assert_eq!(l.len(), 0);
    }
}
