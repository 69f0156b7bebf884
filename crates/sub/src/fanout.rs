//! The server side of the subscription layer: per-query mailbox
//! delivery of an epoch-numbered [`CycleDeltas`] stream.
//!
//! A [`DeltaFanout`] runs no engine — it only *distributes*. Whatever
//! produces the cycle's batch (a delta-capturing [`cpm_core::CpmServer`],
//! a durable server, a cluster coordinator's epoch-aligned merge)
//! publishes it here, and subscribers drain per-query mailboxes and fold
//! the deltas with [`Replica`]. Because every producer's batches are
//! bit-identical to a single node's, nothing downstream of this boundary
//! can tell the deployments apart.
//!
//! Mailboxes are bounded ([`DeltaFanout::set_mailbox_capacity`]): a slow
//! consumer loses the *oldest* deltas first and is flagged as
//! [`lagged`](DeltaFanout::lagged), at which point replaying is no longer
//! lossless and the client must [`resync`](DeltaFanout::resync) — the
//! standard recovery path of log-shipping systems. The fan-out keeps one
//! authoritative [`Replica`] per subscription for exactly that, so a
//! resync never reaches back to the delta producer.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::Arc;

use cpm_core::{CycleDeltas, Neighbor, NeighborDelta};
use cpm_geom::{FastHashMap, QueryId};
use cpm_wire::{Decode, Writer};

use crate::replica::Replica;

/// Summary of one published cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleReceipt {
    /// The epoch of the published batch (1-based).
    pub epoch: u64,
    /// Queries whose result changed this cycle.
    pub changed: usize,
    /// Deltas the batch carried (subscribed or not).
    pub deltas: usize,
    /// Total delta entries (adds + removes + reorders) across them — the
    /// "wire size" of the cycle.
    pub entries: usize,
}

/// One queued delivery: the cycle's shared encoded batch plus the byte
/// range of this subscription's delta inside it. Every subscriber of a
/// cycle holds the same `Arc` — the batch is encoded once per publish,
/// never once per mailbox.
#[derive(Debug, Clone)]
struct QueuedDelta {
    frame: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl QueuedDelta {
    fn decode(&self) -> NeighborDelta {
        NeighborDelta::decode_all(&self.frame[self.start..self.end])
            .expect("the fan-out encoded this delta itself")
    }
}

/// One subscription's delivery state.
#[derive(Debug, Default)]
struct Mailbox {
    queue: VecDeque<QueuedDelta>,
    /// Deltas evicted because the queue was full; non-zero means the
    /// stream is no longer lossless for this subscriber.
    dropped: u64,
}

impl Mailbox {
    /// Evict oldest-first until at most `cap` deltas are buffered,
    /// counting every eviction as lag.
    fn enforce(&mut self, cap: usize) {
        while self.queue.len() > cap {
            self.queue.pop_front();
            self.dropped += 1;
        }
    }
}

/// Per-query mailbox delivery over an external epoch-numbered
/// [`CycleDeltas`] stream; see the [module docs](self).
#[derive(Debug)]
pub struct DeltaFanout {
    epoch: u64,
    subs: FastHashMap<QueryId, (Mailbox, Replica)>,
    mailbox_cap: usize,
    /// Cumulative full-batch encodes (see [`DeltaFanout::encodes`]).
    encodes: u64,
}

impl Default for DeltaFanout {
    fn default() -> Self {
        Self::new()
    }
}

impl DeltaFanout {
    /// An empty fan-out at epoch 0 with unbounded mailboxes.
    pub fn new() -> Self {
        Self::from_epoch(0)
    }

    /// A fan-out that resumes at `epoch` (a producer recovered or
    /// restarted from a snapshot publishes its next cycle as
    /// `epoch + 1`).
    pub fn from_epoch(epoch: u64) -> Self {
        Self {
            epoch,
            subs: FastHashMap::default(),
            mailbox_cap: usize::MAX,
            encodes: 0,
        }
    }

    /// Epoch of the last published batch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Bound every mailbox to `cap` buffered deltas; on overflow the
    /// **oldest** delta is evicted and the subscriber flagged as lagged.
    /// Lowering the cap applies to existing backlogs immediately, exactly
    /// as on overflow.
    pub fn set_mailbox_capacity(&mut self, cap: NonZeroUsize) {
        let cap = cap.get();
        self.mailbox_cap = cap;
        for (mailbox, _) in self.subs.values_mut() {
            mailbox.enforce(cap);
        }
    }

    /// Register a subscription on a query that has no result yet — one
    /// installed by a *later* cycle, whose initial result then arrives as
    /// an all-additions delta. Returns `false` (and changes nothing) if
    /// `id` is already registered. Registration only opens the delivery
    /// channel — installing the query where results are computed is the
    /// producer's job.
    pub fn subscribe(&mut self, id: QueryId) -> bool {
        self.subscribe_from(id, &[])
    }

    /// Register a subscription on a query that already has a `result` as
    /// of the fan-out's current epoch — installed outside a cycle, or
    /// live on a producer this fan-out was rebuilt beside
    /// ([`DeltaFanout::from_epoch`]). The authoritative replica starts
    /// from `result`, so the next published delta folds onto the state it
    /// was computed against; the subscriber starts its own
    /// [`Replica::from_snapshot`] from the same result (or from
    /// [`resync`](Self::resync)). Returns `false` (and changes nothing)
    /// if `id` is already registered.
    pub fn subscribe_from(&mut self, id: QueryId, result: &[Neighbor]) -> bool {
        if self.subs.contains_key(&id) {
            return false;
        }
        let replica = Replica::from_snapshot(self.epoch, result.to_vec());
        self.subs.insert(id, (Mailbox::default(), replica));
        true
    }

    /// Drop a subscription and its undelivered backlog. Returns `false`
    /// if `id` was not registered.
    pub fn unsubscribe(&mut self, id: QueryId) -> bool {
        self.subs.remove(&id).is_some()
    }

    /// Registered subscription count.
    pub fn subscriptions(&self) -> usize {
        self.subs.len()
    }

    /// Publish one cycle's merged batch: fold every delta into its
    /// subscription's authoritative replica and enqueue it for delivery.
    /// Deltas for queries nobody subscribed to are counted in the receipt
    /// but not buffered.
    ///
    /// Delivery is encode-once: when at least one delta has a
    /// subscriber, the whole batch is serialized **once** to a shared
    /// `Arc<[u8]>` (recording each delta's byte range along the way) and
    /// every mailbox enqueues the same buffer plus its range — never a
    /// per-subscriber re-serialization or deep delta clone.
    ///
    /// # Panics
    /// Panics if `batch.epoch` is not exactly one past the last published
    /// epoch — the producer skipped or replayed a cycle, and folding it
    /// would corrupt every replica.
    pub fn publish(&mut self, batch: &CycleDeltas) -> CycleReceipt {
        assert_eq!(
            batch.epoch,
            self.epoch + 1,
            "publish of epoch {} onto a fan-out at {}",
            batch.epoch,
            self.epoch
        );
        self.epoch = batch.epoch;
        let encoded = self.encode_once(batch);
        let mut entries = 0;
        for (i, (qid, delta)) in batch.deltas.iter().enumerate() {
            entries += delta.added.len() + delta.removed.len() + delta.reordered.len();
            let Some((mailbox, replica)) = self.subs.get_mut(qid) else {
                continue;
            };
            replica.apply(delta);
            let (frame, ranges) = encoded
                .as_ref()
                .expect("a subscribed delta means the batch was encoded");
            let (start, end) = ranges[i];
            mailbox.queue.push_back(QueuedDelta {
                frame: Arc::clone(frame),
                start,
                end,
            });
            mailbox.enforce(self.mailbox_cap);
        }
        CycleReceipt {
            epoch: batch.epoch,
            changed: batch.changed.len(),
            deltas: batch.deltas.len(),
            entries,
        }
    }

    /// Serialize `batch` exactly once
    /// ([`CycleDeltas::encode_marking_deltas`]) and record each delta's
    /// byte range, or skip entirely when no delta has a subscriber.
    #[allow(clippy::type_complexity)]
    fn encode_once(&mut self, batch: &CycleDeltas) -> Option<(Arc<[u8]>, Vec<(usize, usize)>)> {
        if !batch
            .deltas
            .iter()
            .any(|(qid, _)| self.subs.contains_key(qid))
        {
            return None;
        }
        self.encodes += 1;
        let mut w = Writer::new();
        let mut ranges = Vec::with_capacity(batch.deltas.len());
        batch.encode_marking_deltas(&mut w, |start, end| ranges.push((start, end)));
        Some((Arc::from(w.into_bytes()), ranges))
    }

    /// Cumulative number of full-batch serializations performed by
    /// [`publish`](Self::publish): exactly one per published cycle that
    /// carried at least one subscribed delta, **independent of how many
    /// subscribers received it**, and zero for cycles nobody subscribed
    /// to.
    pub fn encodes(&self) -> u64 {
        self.encodes
    }

    /// Drain subscription `id`'s buffered deltas, oldest first. Unknown
    /// ids drain empty. Each delta is decoded from its cycle's shared
    /// buffer at delivery time.
    pub fn drain(&mut self, id: QueryId) -> Vec<NeighborDelta> {
        self.subs
            .get_mut(&id)
            .map(|(m, _)| m.queue.drain(..).map(|q| q.decode()).collect())
            .unwrap_or_default()
    }

    /// `true` if subscription `id` has lost deltas to mailbox overflow
    /// since its last [`resync`](Self::resync).
    pub fn lagged(&self, id: QueryId) -> bool {
        self.subs.get(&id).is_some_and(|(m, _)| m.dropped > 0)
    }

    /// A lagged subscriber's recovery path: the authoritative result as
    /// of the last published epoch. Clears the backlog and the lag flag —
    /// deltas published after this call replay losslessly on top.
    /// Returns `None` for unknown ids.
    pub fn resync(&mut self, id: QueryId) -> Option<(u64, Vec<Neighbor>)> {
        let (mailbox, replica) = self.subs.get_mut(&id)?;
        mailbox.queue.clear();
        mailbox.dropped = 0;
        Some((replica.epoch(), replica.result().to_vec()))
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

    fn batch(epoch: u64, qid: u32, added: Vec<Neighbor>) -> CycleDeltas {
        CycleDeltas {
            epoch,
            changed: vec![QueryId(qid)],
            deltas: vec![(
                QueryId(qid),
                NeighborDelta {
                    epoch,
                    added: added.into(),
                    ..NeighborDelta::default()
                },
            )],
        }
    }

    #[test]
    fn publishes_into_mailboxes_and_replicas() {
        let mut f = DeltaFanout::new();
        assert!(f.subscribe(QueryId(7)));
        assert!(!f.subscribe(QueryId(7)));
        let receipt = f.publish(&batch(1, 7, vec![n(1, 0.2), n(2, 0.5)]));
        assert_eq!((receipt.epoch, receipt.deltas, receipt.entries), (1, 1, 2));
        let drained = f.drain(QueryId(7));
        assert_eq!(drained.len(), 1);
        let mut r = Replica::new();
        r.apply(&drained[0]);
        assert_eq!(r.result(), &[n(1, 0.2), n(2, 0.5)]);
        // The fan-out's own replica agrees.
        assert_eq!(
            f.resync(QueryId(7)).unwrap(),
            (1, vec![n(1, 0.2), n(2, 0.5)])
        );
        // Unsubscribing discards the mailbox with the registration.
        f.publish(&batch(2, 7, vec![n(3, 0.7)]));
        assert!(f.unsubscribe(QueryId(7)) && !f.unsubscribe(QueryId(7)));
        assert!(f.drain(QueryId(7)).is_empty() && f.resync(QueryId(7)).is_none());
        assert_eq!(f.subscriptions(), 0);
    }

    #[test]
    fn bounded_mailboxes_lag_and_resync_recovers() {
        let mut f = DeltaFanout::new();
        f.set_mailbox_capacity(NonZeroUsize::MIN);
        f.subscribe(QueryId(3));
        f.publish(&batch(1, 3, vec![n(1, 0.2)]));
        f.publish(&batch(2, 3, vec![n(2, 0.1)]));
        assert!(f.lagged(QueryId(3)));
        // The backlog is no longer lossless; resync hands the full result.
        let (epoch, result) = f.resync(QueryId(3)).unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(result, vec![n(2, 0.1), n(1, 0.2)]);
        assert!(!f.lagged(QueryId(3)));
        assert!(f.drain(QueryId(3)).is_empty());
    }

    /// Lowering the cap under an existing backlog re-establishes the
    /// bound at once (oldest dropped first, every drop counted as lag),
    /// and it holds across later publishes.
    #[test]
    fn lowering_the_cap_trims_an_existing_backlog() {
        let mut f = DeltaFanout::new();
        f.subscribe(QueryId(3));
        for epoch in 1..=11 {
            f.publish(&batch(epoch, 3, vec![n(epoch as u32, 0.5)]));
        }
        assert!(!f.lagged(QueryId(3)));
        f.set_mailbox_capacity(NonZeroUsize::new(2).unwrap());
        assert!(f.lagged(QueryId(3)), "the trimmed deltas are lag");
        for epoch in 12..=14 {
            f.publish(&batch(epoch, 3, vec![n(epoch as u32, 0.5)]));
        }
        let drained = f.drain(QueryId(3));
        let epochs: Vec<u64> = drained.iter().map(|d| d.epoch).collect();
        assert_eq!(epochs, [13, 14], "the two newest deltas survive");
    }

    /// A subscription opened on a query that already has a result must
    /// fold the next delta onto that result, not onto an empty list.
    #[test]
    fn late_subscriptions_are_seeded_from_the_current_result() {
        let mut f = DeltaFanout::from_epoch(4);
        assert!(f.subscribe_from(QueryId(7), &[n(1, 0.2), n(2, 0.5)]));
        assert!(!f.subscribe_from(QueryId(7), &[]));
        // Object 2 closes in: a pure reorder of an existing entry.
        let receipt = f.publish(&CycleDeltas {
            epoch: 5,
            changed: vec![QueryId(7)],
            deltas: vec![(
                QueryId(7),
                NeighborDelta {
                    epoch: 5,
                    reordered: vec![n(2, 0.1)].into(),
                    ..NeighborDelta::default()
                },
            )],
        });
        assert_eq!(receipt.epoch, 5);
        let mut replica = Replica::from_snapshot(4, vec![n(1, 0.2), n(2, 0.5)]);
        for d in f.drain(QueryId(7)) {
            replica.apply(&d);
        }
        assert_eq!(replica.result(), &[n(2, 0.1), n(1, 0.2)]);
        assert_eq!(
            f.resync(QueryId(7)).unwrap(),
            (5, replica.result().to_vec())
        );
    }

    #[test]
    fn unsubscribed_queries_are_counted_but_not_buffered() {
        let mut f = DeltaFanout::new();
        let receipt = f.publish(&batch(1, 9, vec![n(1, 0.2)]));
        assert_eq!(receipt.deltas, 1);
        assert!(f.drain(QueryId(9)).is_empty());
        assert_eq!(f.subscriptions(), 0);
    }

    #[test]
    #[should_panic(expected = "publish of epoch")]
    fn rejects_non_contiguous_epochs() {
        let mut f = DeltaFanout::from_epoch(4);
        f.publish(&batch(6, 1, vec![n(1, 0.2)]));
    }

    /// The encode-once contract: one serialization per published cycle
    /// regardless of subscriber count, zero when nobody subscribed, and
    /// every subscriber still drains its own decoded delta.
    #[test]
    fn encodes_each_cycle_exactly_once_regardless_of_subscriber_count() {
        let mut f = DeltaFanout::new();
        for q in 0..16 {
            f.subscribe(QueryId(q));
        }
        assert_eq!(f.encodes(), 0);
        // One batch carrying a distinct delta for every subscriber.
        let wide = CycleDeltas {
            epoch: 1,
            changed: (0..16).map(QueryId).collect(),
            deltas: (0..16)
                .map(|q| {
                    (
                        QueryId(q),
                        NeighborDelta {
                            epoch: 1,
                            added: vec![n(q, f64::from(q) * 0.01)].into(),
                            ..NeighborDelta::default()
                        },
                    )
                })
                .collect(),
        };
        f.publish(&wide);
        assert_eq!(f.encodes(), 1, "16 subscribers, one encode");
        for q in 0..16 {
            let drained = f.drain(QueryId(q));
            assert_eq!(drained.len(), 1);
            assert_eq!(drained[0].added.as_slice(), &[n(q, f64::from(q) * 0.01)]);
        }
        // A cycle whose deltas nobody subscribed to is not encoded.
        f.publish(&batch(2, 99, vec![n(1, 0.5)]));
        assert_eq!(f.encodes(), 1);
        // An empty cycle is not encoded either.
        f.publish(&CycleDeltas {
            epoch: 3,
            changed: vec![],
            deltas: vec![],
        });
        assert_eq!(f.encodes(), 1);
    }
}
