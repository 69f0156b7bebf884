//! The client side of the subscription layer: a result replica maintained
//! purely from the delta stream.
//!
//! A [`Replica`] never sees a full result after its starting snapshot —
//! it folds each [`NeighborDelta`] with [`NeighborDelta::apply_to`] and
//! tracks the epoch of the last applied delta. Because deltas are exact
//! ([`NeighborDelta::diff`] and `apply_to` are inverses), a replica that
//! has applied every delta up to epoch `e` is **bit-identical** to the
//! server's result at epoch `e` — the losslessness property the
//! delta-replay suite proves against the brute-force oracle.

use cpm_core::{Neighbor, NeighborDelta};

/// A subscriber's local copy of one query's result, advanced delta by
/// delta.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replica {
    epoch: u64,
    result: Vec<Neighbor>,
}

impl Replica {
    /// An empty replica at epoch 0 — the correct starting point for a
    /// subscription registered before its first commit (the initial
    /// result arrives as an all-additions delta).
    pub fn new() -> Self {
        Self::default()
    }

    /// A replica primed from an authoritative snapshot (the
    /// [`resync`](crate::DeltaFanout::resync) recovery path, or the start
    /// of a subscription opened with
    /// [`subscribe_from`](crate::DeltaFanout::subscribe_from)).
    pub fn from_snapshot(epoch: u64, result: Vec<Neighbor>) -> Self {
        Self { epoch, result }
    }

    /// Fold one delta. Deltas must arrive in stream order; gaps are fine
    /// (quiet cycles emit nothing) but going backwards is a protocol
    /// violation.
    ///
    /// # Panics
    /// Panics if `delta.epoch` is not beyond the replica's epoch.
    pub fn apply(&mut self, delta: &NeighborDelta) {
        assert!(
            delta.epoch > self.epoch,
            "delta for epoch {} applied to a replica already at {}",
            delta.epoch,
            self.epoch
        );
        delta.apply_to(&mut self.result);
        self.epoch = delta.epoch;
    }

    /// Epoch of the last applied delta (0 = nothing applied yet).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The replicated result, ascending by `(dist, id)`.
    pub fn result(&self) -> &[Neighbor] {
        &self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_geom::ObjectId;

    fn n(id: u32, dist: f64) -> Neighbor {
        Neighbor {
            id: ObjectId(id),
            dist,
        }
    }

    #[test]
    fn folds_deltas_in_epoch_order() {
        let mut r = Replica::new();
        r.apply(&NeighborDelta {
            epoch: 1,
            added: vec![n(1, 0.2), n(2, 0.5)].into(),
            ..NeighborDelta::default()
        });
        // Epoch 2 was quiet; epoch 3 swaps an entry and reorders another.
        r.apply(&NeighborDelta {
            epoch: 3,
            added: vec![n(3, 0.1)].into(),
            removed: vec![ObjectId(1)].into(),
            reordered: vec![n(2, 0.05)].into(),
        });
        assert_eq!(r.epoch(), 3);
        assert_eq!(r.result(), &[n(2, 0.05), n(3, 0.1)]);
    }

    #[test]
    #[should_panic(expected = "applied to a replica already at")]
    fn rejects_regressing_epochs() {
        let mut r = Replica::from_snapshot(5, vec![n(1, 0.2)]);
        r.apply(&NeighborDelta {
            epoch: 5,
            removed: vec![ObjectId(1)].into(),
            ..NeighborDelta::default()
        });
    }
}
