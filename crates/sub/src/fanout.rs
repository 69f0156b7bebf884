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
//!
//! [`publish`](DeltaFanout::publish) encodes the batch once and enqueues
//! it; the fold of the authoritative replicas runs beside the caller, on
//! a helper thread, until the next call that reads or changes them —
//! the next `publish`, `subscribe` / `subscribe_from`, `unsubscribe`,
//! `resync` or the fan-out's drop — joins it. Each of those therefore
//! sees exactly the replicas a fold inside `publish` would have left,
//! while [`drain`](DeltaFanout::drain), [`lagged`](DeltaFanout::lagged)
//! and the counters never wait. At most one fold is in flight.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::Arc;
use std::thread::{self, JoinHandle};

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

/// The authoritative replica of every subscription.
type Replicas = FastHashMap<QueryId, Replica>;

/// Per-query mailbox delivery over an external epoch-numbered
/// [`CycleDeltas`] stream; see the [module docs](self).
#[derive(Debug)]
pub struct DeltaFanout {
    epoch: u64,
    subs: FastHashMap<QueryId, Mailbox>,
    /// Empty while `fold` holds them.
    replicas: Replicas,
    /// The helper folding the last published batch into the replicas.
    fold: Option<JoinHandle<Replicas>>,
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
            replicas: Replicas::default(),
            fold: None,
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
        for mailbox in self.subs.values_mut() {
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
        let epoch = self.epoch;
        let replicas = self.join_fold();
        if replicas.contains_key(&id) {
            return false;
        }
        replicas.insert(id, Replica::from_snapshot(epoch, result.to_vec()));
        self.subs.insert(id, Mailbox::default());
        true
    }

    /// Drop a subscription and its undelivered backlog. Returns `false`
    /// if `id` was not registered.
    pub fn unsubscribe(&mut self, id: QueryId) -> bool {
        self.join_fold().remove(&id);
        self.subs.remove(&id).is_some()
    }

    /// Registered subscription count.
    pub fn subscriptions(&self) -> usize {
        self.subs.len()
    }

    /// Publish one cycle's merged batch: enqueue every subscribed delta
    /// for delivery and start folding them into their subscriptions'
    /// authoritative replicas. Deltas for queries nobody subscribed to
    /// are counted in the receipt but not buffered.
    ///
    /// Delivery is encode-once: when at least one delta has a
    /// subscriber, the whole batch is serialized **once** to a shared
    /// `Arc<[u8]>` (recording each delta's byte range along the way) and
    /// every mailbox enqueues the same buffer plus its range — never a
    /// per-subscriber re-serialization or deep delta clone. The fold
    /// decodes the subscribed deltas from that buffer on a helper thread
    /// and is joined by the next call that reads the replicas (see the
    /// [module docs](self)).
    ///
    /// # Panics
    /// Panics if `batch.epoch` is not exactly one past the last published
    /// epoch — the producer skipped or replayed a cycle, and folding it
    /// would corrupt every replica. Also re-raises, with its original
    /// payload, a panic of the previous publish's fold (a delta that does
    /// not fold onto its replica, as after a
    /// [`subscribe_from`](Self::subscribe_from) seeded with a wrong
    /// result); this batch's own fold panics at the next join instead.
    pub fn publish(&mut self, batch: &CycleDeltas) -> CycleReceipt {
        self.join_fold();
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
        let mut folds = Vec::new();
        for (i, (qid, delta)) in batch.deltas.iter().enumerate() {
            entries += delta.added.len() + delta.removed.len() + delta.reordered.len();
            let Some(mailbox) = self.subs.get_mut(qid) else {
                continue;
            };
            let (frame, ranges) = encoded
                .as_ref()
                .expect("a subscribed delta means the batch was encoded");
            let (start, end) = ranges[i];
            folds.push((*qid, start, end));
            mailbox.queue.push_back(QueuedDelta {
                frame: Arc::clone(frame),
                start,
                end,
            });
            mailbox.enforce(self.mailbox_cap);
        }
        if let Some((frame, _)) = encoded {
            let replicas = std::mem::take(&mut self.replicas);
            self.fold = Some(thread::spawn(move || fold(replicas, &frame, &folds)));
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

    /// The replicas, once the fold in flight (if any) has finished; a
    /// panic of that fold resumes here.
    fn join_fold(&mut self) -> &mut Replicas {
        if let Some(fold) = self.fold.take() {
            match fold.join() {
                Ok(replicas) => self.replicas = replicas,
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        &mut self.replicas
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
            .map(|m| m.queue.drain(..).map(|q| q.decode()).collect())
            .unwrap_or_default()
    }

    /// `true` if subscription `id` has lost deltas to mailbox overflow
    /// since its last [`resync`](Self::resync).
    pub fn lagged(&self, id: QueryId) -> bool {
        self.subs.get(&id).is_some_and(|m| m.dropped > 0)
    }

    /// A lagged subscriber's recovery path: the authoritative result as
    /// of the last published epoch. Clears the backlog and the lag flag —
    /// deltas published after this call replay losslessly on top.
    /// Returns `None` for unknown ids.
    ///
    /// # Panics
    /// Re-raises, with its original payload, a panic of the last
    /// publish's fold (see [`publish`](Self::publish)).
    pub fn resync(&mut self, id: QueryId) -> Option<(u64, Vec<Neighbor>)> {
        let replica = self.join_fold().get(&id)?;
        let snapshot = (replica.epoch(), replica.result().to_vec());
        let mailbox = self.subs.get_mut(&id)?;
        mailbox.queue.clear();
        mailbox.dropped = 0;
        Some(snapshot)
    }
}

impl Drop for DeltaFanout {
    /// Joins the fold in flight; its panic resumes here unless the
    /// fan-out is dropped by an unwind already under way.
    fn drop(&mut self) {
        if let Some(fold) = self.fold.take() {
            if let Err(panic) = fold.join() {
                if !thread::panicking() {
                    std::panic::resume_unwind(panic);
                }
            }
        }
    }
}

/// Fold the subscribed deltas of one encoded batch — `(query, start,
/// end)` ranges into `frame`, in batch order — into their replicas,
/// decoding every one into the same [`NeighborDelta`].
fn fold(mut replicas: Replicas, frame: &[u8], folds: &[(QueryId, usize, usize)]) -> Replicas {
    let mut delta = NeighborDelta::default();
    for &(qid, start, end) in folds {
        delta
            .decode_into(&frame[start..end])
            .expect("the fan-out encoded this delta itself");
        replicas
            .get_mut(&qid)
            .expect("every subscription has a replica")
            .apply(&delta);
    }
    replicas
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_core::DeltaScratch;
    use cpm_geom::ObjectId;
    use proptest::prelude::*;
    use std::collections::HashMap;

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

    /// A `resync` right after `publish` joins the fold in flight and
    /// returns what it folded.
    #[test]
    fn resync_right_after_publish_sees_the_fold() {
        let mut f = DeltaFanout::new();
        f.subscribe(QueryId(1));
        let wide: Vec<Neighbor> = (0..200).map(|i| n(i, f64::from(i) / 256.0)).collect();
        f.publish(&batch(1, 1, wide.clone()));
        assert_eq!(f.resync(QueryId(1)).unwrap(), (1, wide));
    }

    /// Dropping a fan-out with a fold in flight waits for the fold: the
    /// helper's reference to the cycle's frame is gone once `drop`
    /// returns.
    #[test]
    fn dropping_with_a_fold_in_flight_joins_it() {
        let mut f = DeltaFanout::new();
        let qids: Vec<QueryId> = (0..64).map(QueryId).collect();
        for &q in &qids {
            f.subscribe(q);
        }
        let wide = CycleDeltas {
            epoch: 1,
            changed: qids.clone(),
            deltas: qids
                .iter()
                .map(|&q| {
                    let added = (0..256).map(|i| n(i, f64::from(i + q.0) / 512.0));
                    let delta = NeighborDelta {
                        epoch: 1,
                        added: added.collect(),
                        ..NeighborDelta::default()
                    };
                    (q, delta)
                })
                .collect(),
        };
        f.publish(&wide);
        let frame = Arc::downgrade(&f.subs[&qids[0]].queue[0].frame);
        for &q in &qids {
            f.subs.get_mut(&q).unwrap().queue.clear();
        }
        drop(f);
        assert!(frame.upgrade().is_none(), "the fold still holds the frame");
    }

    /// A delta that does not fold onto its replica panics on the helper;
    /// the panic resurfaces, message intact, at the next join.
    #[test]
    #[should_panic(expected = "reordered entry must be in the replayed result")]
    fn a_fold_panic_resurfaces_at_the_next_join() {
        let mut f = DeltaFanout::from_epoch(4);
        // Seeded with a result that lacks object 2 ...
        f.subscribe_from(QueryId(7), &[n(1, 0.2)]);
        // ... which the producer's delta reorders.
        f.publish(&CycleDeltas {
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
        // Delivery does not wait for the fold.
        assert_eq!(f.drain(QueryId(7)).len(), 1);
        f.resync(QueryId(7));
    }

    /// One step of the equivalence property.
    #[derive(Debug, Clone)]
    enum Op {
        Subscribe(u32),
        /// Seeded with the producer's current result.
        SubscribeFrom(u32),
        Unsubscribe(u32),
        SetCapacity(usize),
        /// The new results of some queries: `(query, ids, eighths)`.
        Publish(Vec<(u32, Vec<u32>, Vec<u32>)>),
        Drain(u32),
        Lagged(u32),
        Resync(u32),
    }

    fn op() -> impl Strategy<Value = Op> {
        let q = || 0u32..8;
        let result = || {
            (
                q(),
                proptest::collection::vec(0u32..24, 0..12),
                proptest::collection::vec(0u32..8, 1..12),
            )
        };
        prop_oneof![
            2 => q().prop_map(Op::Subscribe),
            2 => q().prop_map(Op::SubscribeFrom),
            1 => q().prop_map(Op::Unsubscribe),
            1 => (1usize..4).prop_map(Op::SetCapacity),
            5 => proptest::collection::vec(result(), 0..6).prop_map(Op::Publish),
            3 => q().prop_map(Op::Drain),
            1 => q().prop_map(Op::Lagged),
            2 => q().prop_map(Op::Resync),
        ]
    }

    /// A duplicate-free result ascending by `(dist, id)`, over eight
    /// distinct distances.
    fn result_list(ids: &[u32], eighths: &[u32]) -> Vec<Neighbor> {
        let dists = eighths.iter().cycle().map(|&e| f64::from(e) / 8.0);
        let mut out: Vec<Neighbor> = ids.iter().zip(dists).map(|(&id, d)| n(id, d)).collect();
        out.sort_unstable_by_key(|e| e.id);
        out.dedup_by_key(|e| e.id);
        out.sort_unstable_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
        out
    }

    /// The fan-out with the fold inside `publish`: decoded deltas in
    /// bounded mailboxes and one replica per subscription.
    #[derive(Default)]
    struct SyncFanout {
        epoch: u64,
        cap: usize,
        mailboxes: HashMap<QueryId, (VecDeque<NeighborDelta>, u64)>,
        replicas: HashMap<QueryId, Replica>,
    }

    impl SyncFanout {
        fn subscribe_from(&mut self, id: QueryId, result: &[Neighbor]) -> bool {
            if self.replicas.contains_key(&id) {
                return false;
            }
            let replica = Replica::from_snapshot(self.epoch, result.to_vec());
            self.replicas.insert(id, replica);
            self.mailboxes.insert(id, (VecDeque::new(), 0));
            true
        }

        fn unsubscribe(&mut self, id: QueryId) -> bool {
            self.mailboxes.remove(&id);
            self.replicas.remove(&id).is_some()
        }

        fn enforce(cap: usize, (queue, dropped): &mut (VecDeque<NeighborDelta>, u64)) {
            while queue.len() > cap {
                queue.pop_front();
                *dropped += 1;
            }
        }

        fn set_capacity(&mut self, cap: usize) {
            self.cap = cap;
            for mailbox in self.mailboxes.values_mut() {
                Self::enforce(cap, mailbox);
            }
        }

        fn publish(&mut self, batch: &CycleDeltas) -> CycleReceipt {
            self.epoch = batch.epoch;
            for (qid, delta) in &batch.deltas {
                if let Some(replica) = self.replicas.get_mut(qid) {
                    replica.apply(delta);
                    let mailbox = self.mailboxes.get_mut(qid).unwrap();
                    mailbox.0.push_back(delta.clone());
                    Self::enforce(self.cap, mailbox);
                }
            }
            CycleReceipt {
                epoch: batch.epoch,
                changed: batch.changed.len(),
                deltas: batch.deltas.len(),
                entries: batch.deltas.iter().map(|(_, d)| d.len()).sum(),
            }
        }

        fn drain(&mut self, id: QueryId) -> Vec<NeighborDelta> {
            self.mailboxes
                .get_mut(&id)
                .map(|(queue, _)| queue.drain(..).collect())
                .unwrap_or_default()
        }

        fn lagged(&self, id: QueryId) -> bool {
            self.mailboxes
                .get(&id)
                .is_some_and(|&(_, dropped)| dropped > 0)
        }

        fn resync(&mut self, id: QueryId) -> Option<(u64, Vec<Neighbor>)> {
            let replica = self.replicas.get(&id)?;
            let (queue, dropped) = self.mailboxes.get_mut(&id).unwrap();
            queue.clear();
            *dropped = 0;
            Some((replica.epoch(), replica.result().to_vec()))
        }
    }

    proptest! {
        /// Whatever a caller does between publishes, the fan-out whose
        /// fold runs beside it answers exactly as one that folds inside
        /// `publish`: every receipt, drain, lag flag and resync.
        #[test]
        fn the_folding_helper_is_indistinguishable_from_a_synchronous_fold(
            ops in proptest::collection::vec(op(), 1..41),
        ) {
            let mut fanout = DeltaFanout::new();
            let mut reference = SyncFanout {
                cap: usize::MAX,
                ..SyncFanout::default()
            };
            // The producer's current result per query.
            let mut current: HashMap<QueryId, Vec<Neighbor>> = HashMap::new();
            let mut scratch = DeltaScratch::default();
            for op in ops {
                match op {
                    Op::Subscribe(q) => {
                        let id = QueryId(q);
                        let fresh = fanout.subscribe(id);
                        prop_assert_eq!(fresh, reference.subscribe_from(id, &[]));
                        if fresh {
                            // A query installed by a later cycle.
                            current.insert(id, Vec::new());
                        }
                    }
                    Op::SubscribeFrom(q) => {
                        let id = QueryId(q);
                        let result = current.get(&id).cloned().unwrap_or_default();
                        prop_assert_eq!(
                            fanout.subscribe_from(id, &result),
                            reference.subscribe_from(id, &result)
                        );
                    }
                    Op::Unsubscribe(q) => {
                        let id = QueryId(q);
                        prop_assert_eq!(fanout.unsubscribe(id), reference.unsubscribe(id));
                    }
                    Op::SetCapacity(cap) => {
                        fanout.set_mailbox_capacity(NonZeroUsize::new(cap).unwrap());
                        reference.set_capacity(cap);
                    }
                    Op::Publish(mut results) => {
                        results.sort_by_key(|(q, ..)| *q);
                        results.dedup_by_key(|(q, ..)| *q);
                        let epoch = fanout.epoch() + 1;
                        let mut batch = CycleDeltas {
                            epoch,
                            ..CycleDeltas::default()
                        };
                        for (q, ids, eighths) in results {
                            let id = QueryId(q);
                            let new = result_list(&ids, &eighths);
                            let old = current.insert(id, new.clone()).unwrap_or_default();
                            batch.changed.push(id);
                            let delta = NeighborDelta::diff(epoch, &old, &new, &mut scratch);
                            batch.deltas.push((id, delta));
                        }
                        prop_assert_eq!(fanout.publish(&batch), reference.publish(&batch));
                    }
                    Op::Drain(q) => {
                        let id = QueryId(q);
                        prop_assert_eq!(fanout.drain(id), reference.drain(id));
                    }
                    Op::Lagged(q) => {
                        let id = QueryId(q);
                        prop_assert_eq!(fanout.lagged(id), reference.lagged(id));
                    }
                    Op::Resync(q) => {
                        let id = QueryId(q);
                        prop_assert_eq!(fanout.resync(id), reference.resync(id));
                    }
                }
                prop_assert_eq!(fanout.epoch(), reference.epoch);
                prop_assert_eq!(fanout.subscriptions(), reference.replicas.len());
            }
            for q in 0..8 {
                prop_assert_eq!(fanout.resync(QueryId(q)), reference.resync(QueryId(q)));
            }
        }
    }
}
