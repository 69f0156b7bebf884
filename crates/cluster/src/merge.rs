//! Epoch-aligned deterministic merging of per-worker delta batches.
//!
//! Workers ship one engine-encoded `CycleDeltas` per cycle. The
//! [`MergeBuffer`] is the coordinator's reassembly point: it holds each
//! worker's payloads keyed by epoch, enforces per-worker epoch
//! contiguity (the transports are FIFO, so an out-of-order epoch from
//! one worker means a frame was lost — a typed
//! [`ClusterError::EpochGap`], never a silent skip), absorbs
//! at-least-once redelivery (byte-identical duplicates collapse;
//! conflicting payloads for one epoch are a typed
//! [`ClusterError::ConflictingDeltas`]), and commits an epoch only when
//! **every** worker's batch for it has arrived — the epoch-aligned
//! barrier that makes a mixed-epoch commit impossible by construction.
//!
//! A payload is never copied out of the frame it arrived in: the buffer
//! owns the received frame, and the commit decodes the workers' payloads
//! *as* it merges them. Every worker's lists are already in ascending
//! query-id order and ownership is disjoint, so the commit is a W-way
//! merge of W sorted runs — each delta is decoded once, straight into
//! its place in the merged batch, which is bit-identical to the
//! single-node engine's `CycleDeltas` for the same cycle. A run that is
//! *not* in order, or a query two workers both report, is a typed
//! protocol error — never a silently mis-merged batch.

use std::collections::VecDeque;
use std::ops::Range;

use cpm_core::codec::CycleDeltasCursor;
use cpm_core::CycleDeltas;
use cpm_geom::QueryId;
use cpm_wire::cluster::DeltasHeader;

use crate::error::ClusterError;

/// The fewest wire bytes a `deltas` entry takes: query id (4), epoch (8)
/// and three component counts (4 each). Decoded, an entry is ten times
/// that.
const MIN_DELTA_WIRE_BYTES: usize = 24;

/// One worker's `Deltas` payload, in the frame it arrived in.
#[derive(Debug, Default)]
struct Received {
    frame: Vec<u8>,
    payload: Range<usize>,
}

impl Received {
    fn payload(&self) -> &[u8] {
        &self.frame[self.payload.clone()]
    }
}

/// One worker's sorted run while an epoch is being committed.
#[derive(Debug, Default)]
struct Run {
    from: Received,
    cursor: CycleDeltasCursor,
    /// The run's next query id in the list being merged.
    head: Option<QueryId>,
}

/// Reassembles per-worker delta payloads into committed epochs.
#[derive(Debug)]
pub struct MergeBuffer {
    /// Per worker: payloads received but not yet committed, oldest first.
    /// Epochs arrive contiguously and commit in order, so the queue holds
    /// exactly the epochs `next_epoch ..= delivered`.
    pending: Vec<VecDeque<Received>>,
    /// Per worker: highest epoch received (contiguously) from it.
    delivered: Vec<u64>,
    /// The epoch the next commit will carry.
    next_epoch: u64,
    /// Per worker: the run of the commit in progress, then its spent
    /// frame until [`take_spent`](Self::take_spent) collects it.
    runs: Vec<Run>,
}

impl MergeBuffer {
    /// A buffer for `workers` workers whose engines are currently at
    /// `epoch` (the next committed cycle will be `epoch + 1`).
    pub fn new(workers: usize, epoch: u64) -> Self {
        assert!(workers >= 1, "a merge needs at least one worker");
        Self {
            pending: (0..workers).map(|_| VecDeque::new()).collect(),
            delivered: vec![epoch; workers],
            next_epoch: epoch + 1,
            runs: (0..workers).map(|_| Run::default()).collect(),
        }
    }

    /// The epoch the next commit will produce.
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Feed one worker's `Deltas`: its fields as located in `frame`, which
    /// the buffer keeps (see [`take_spent`](Self::take_spent)).
    ///
    /// * a byte-identical redelivery of a pending epoch is absorbed;
    /// * a redelivery of an epoch at or below the worker's contiguous
    ///   high-water mark is ignored (already committed or pending);
    ///   if still pending, its bytes must match;
    /// * an epoch that skips ahead of the contiguous sequence is a typed
    ///   [`ClusterError::EpochGap`];
    /// * two different payloads for one epoch are a typed
    ///   [`ClusterError::ConflictingDeltas`];
    /// * a worker index or payload range out of range is a typed
    ///   [`ClusterError::Protocol`].
    pub fn offer(&mut self, deltas: DeltasHeader, frame: Vec<u8>) -> Result<(), ClusterError> {
        let DeltasHeader {
            worker,
            epoch,
            payload,
        } = deltas;
        let w = worker as usize;
        if w >= self.pending.len() {
            return Err(ClusterError::Protocol {
                what: "Deltas from a worker index outside the cluster",
            });
        }
        if payload.start > payload.end || payload.end > frame.len() {
            return Err(ClusterError::Protocol {
                what: "Deltas payload range outside its frame",
            });
        }
        let received = Received { frame, payload };
        if epoch <= self.delivered[w] {
            let still_pending = epoch
                .checked_sub(self.next_epoch)
                .and_then(|i| self.pending[w].get(usize::try_from(i).ok()?));
            if still_pending.is_some_and(|p| p.payload() != received.payload()) {
                return Err(ClusterError::ConflictingDeltas { worker, epoch });
            }
            return Ok(());
        }
        if epoch != self.delivered[w] + 1 {
            return Err(ClusterError::EpochGap {
                worker,
                expected: self.delivered[w] + 1,
                got: epoch,
            });
        }
        self.delivered[w] = epoch;
        self.pending[w].push_back(received);
        Ok(())
    }

    /// `true` once every worker's batch for the next epoch has arrived.
    pub fn ready(&self) -> bool {
        self.pending.iter().all(|p| !p.is_empty())
    }

    /// Commit the next epoch if the barrier is complete: verify every
    /// worker's stamped epoch agrees, and decode the payloads into their
    /// merge in canonical query-id order. On a complete barrier the merged
    /// batch replaces `out`'s contents (reusing its allocations) and
    /// `true` is returned; while batches are still missing `out` is
    /// untouched and `false` is returned.
    ///
    /// # Errors
    /// A typed refusal of a payload that does not decode, is stamped with
    /// another epoch, or breaks the canonical order. On error `out` holds
    /// partially merged state and must not be read (the cycle is
    /// poisoned anyway).
    pub fn try_commit_into(&mut self, out: &mut CycleDeltas) -> Result<bool, ClusterError> {
        if !self.ready() {
            return Ok(false);
        }
        let epoch = self.next_epoch;
        out.epoch = epoch;
        out.changed.clear();
        out.deltas.clear();
        let mut changed = 0;
        for (run, pending) in self.runs.iter_mut().zip(&mut self.pending) {
            run.from = pending.pop_front().expect("barrier checked");
            let (cursor, stamped) = CycleDeltasCursor::open(run.from.payload())?;
            if stamped != epoch {
                return Err(ClusterError::Protocol {
                    what: "worker delta batch stamped with a different epoch (mixed-epoch commit)",
                });
            }
            run.cursor = cursor;
            changed += cursor.remaining();
        }
        out.changed.reserve(changed);
        merge_runs(
            &mut self.runs,
            |cursor, bytes| cursor.next_changed(bytes),
            |_, _, qid| {
                out.changed.push(qid);
                Ok(())
            },
        )?;
        // Every run's cursor now stands at the head of its `deltas` list,
        // whose count only proves one byte per entry: reserve no more
        // entries than the payload's bytes can encode.
        let fits = |r: &Run| r.from.payload().len() / MIN_DELTA_WIRE_BYTES;
        let entries = self.runs.iter().map(|r| r.cursor.remaining().min(fits(r)));
        out.deltas.reserve(entries.sum());
        merge_runs(
            &mut self.runs,
            |cursor, bytes| cursor.next_delta_id(bytes),
            |cursor, bytes, qid| {
                out.deltas.push((qid, cursor.delta(bytes)?));
                Ok(())
            },
        )?;
        self.next_epoch += 1;
        Ok(true)
    }

    /// The frame `worker`'s part of the last committed epoch arrived in,
    /// spent — for the transport to reuse. `None` if already taken.
    pub fn take_spent(&mut self, worker: usize) -> Option<Vec<u8>> {
        let frame = std::mem::take(&mut self.runs[worker].from.frame);
        (frame.capacity() > 0).then_some(frame)
    }
}

/// Merge one list of every run — `next` reads a run's next query id,
/// `emit` consumes the entry it belongs to — in ascending query-id order.
/// The ids must come out strictly ascending: a run that is out of order
/// and a query reported by two runs both fail that, typed.
fn merge_runs(
    runs: &mut [Run],
    next: impl Fn(&mut CycleDeltasCursor, &[u8]) -> Result<Option<QueryId>, cpm_wire::WireError>,
    mut emit: impl FnMut(&mut CycleDeltasCursor, &[u8], QueryId) -> Result<(), cpm_wire::WireError>,
) -> Result<(), ClusterError> {
    for run in runs.iter_mut() {
        run.head = next(&mut run.cursor, run.from.payload())?;
    }
    let mut last = None;
    while let Some((run, qid)) = runs
        .iter_mut()
        .filter_map(|run| run.head.map(|qid| (run, qid)))
        .min_by_key(|&(_, qid)| qid)
    {
        if last.is_some_and(|l| qid <= l) {
            return Err(ClusterError::Protocol {
                what: "worker delta batches are not disjoint runs in ascending query-id order",
            });
        }
        last = Some(qid);
        emit(&mut run.cursor, run.from.payload(), qid)?;
        run.head = next(&mut run.cursor, run.from.payload())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_core::delta::DeltaBuf;
    use cpm_core::NeighborDelta;
    use cpm_geom::ObjectId;
    use cpm_wire::cluster::deltas_frame_into;
    use cpm_wire::{Decode, Encode};

    /// A tiny synthetic per-worker batch: `qids` changed, in that order,
    /// one delta per qid removing object `epoch`.
    fn batch(epoch: u64, qids: &[u32]) -> CycleDeltas {
        CycleDeltas {
            epoch,
            changed: qids.iter().map(|&q| QueryId(q)).collect(),
            deltas: qids
                .iter()
                .map(|&q| {
                    let mut removed = DeltaBuf::new();
                    removed.push(ObjectId(epoch as u32));
                    (
                        QueryId(q),
                        NeighborDelta {
                            epoch,
                            added: DeltaBuf::new(),
                            removed,
                            reordered: DeltaBuf::new(),
                        },
                    )
                })
                .collect(),
        }
    }

    fn payload(epoch: u64, qids: &[u32]) -> Vec<u8> {
        batch(epoch, qids).encode_to_vec()
    }

    /// The `Deltas` frame `worker` ships for [`batch`]`(epoch, qids)`.
    fn deltas_frame(worker: u32, epoch: u64, qids: &[u32]) -> Vec<u8> {
        let mut frame = Vec::new();
        deltas_frame_into(worker, epoch, &batch(epoch, qids), &mut frame);
        frame
    }

    /// Offer a bare payload: a "frame" that is all payload.
    fn offer(
        m: &mut MergeBuffer,
        worker: u32,
        epoch: u64,
        bytes: Vec<u8>,
    ) -> Result<(), ClusterError> {
        let header = DeltasHeader {
            worker,
            epoch,
            payload: 0..bytes.len(),
        };
        m.offer(header, bytes)
    }

    /// Offer a received `Deltas` frame as the coordinator does: verify
    /// it (this is where the CRC catches in-flight damage), then hand
    /// the frame over with the payload located inside it.
    fn offer_frame(m: &mut MergeBuffer, frame: &[u8]) -> Result<(), ClusterError> {
        match DeltasHeader::from_frame(frame)? {
            Some(header) => m.offer(header, frame.to_vec()),
            None => Err(ClusterError::Protocol {
                what: "delta plane expected a Deltas frame",
            }),
        }
    }

    /// Commit the next epoch into a fresh batch: `None` while the
    /// barrier is incomplete.
    fn commit(m: &mut MergeBuffer) -> Result<Option<CycleDeltas>, ClusterError> {
        let mut out = CycleDeltas::default();
        Ok(m.try_commit_into(&mut out)?.then_some(out))
    }

    #[test]
    fn barrier_commits_only_complete_epochs_in_canonical_order() {
        let mut m = MergeBuffer::new(2, 0);
        offer(&mut m, 0, 1, payload(1, &[0, 4])).unwrap();
        assert!(commit(&mut m).unwrap().is_none(), "worker 1 still missing");
        offer(&mut m, 1, 1, payload(1, &[2])).unwrap();
        let c = commit(&mut m).unwrap().unwrap();
        assert_eq!(c.epoch, 1);
        assert_eq!(c.changed, vec![QueryId(0), QueryId(2), QueryId(4)]);
        let qids: Vec<u32> = c.deltas.iter().map(|(q, _)| q.0).collect();
        assert_eq!(qids, vec![0, 2, 4]);
        assert_eq!(m.next_epoch(), 2);
    }

    #[test]
    fn duplicates_collapse_and_conflicts_are_typed() {
        let mut m = MergeBuffer::new(1, 0);
        offer(&mut m, 0, 1, payload(1, &[3])).unwrap();
        // Byte-identical redelivery: absorbed.
        offer(&mut m, 0, 1, payload(1, &[3])).unwrap();
        // Same epoch, different bytes: refused.
        assert_eq!(
            offer(&mut m, 0, 1, payload(1, &[5])),
            Err(ClusterError::ConflictingDeltas {
                worker: 0,
                epoch: 1
            })
        );
    }

    #[test]
    fn skipping_an_epoch_is_a_typed_gap() {
        let mut m = MergeBuffer::new(1, 0);
        offer(&mut m, 0, 1, payload(1, &[1])).unwrap();
        assert_eq!(
            offer(&mut m, 0, 3, payload(3, &[1])),
            Err(ClusterError::EpochGap {
                worker: 0,
                expected: 2,
                got: 3
            })
        );
    }

    #[test]
    fn stale_redelivery_of_a_committed_epoch_is_ignored() {
        let mut m = MergeBuffer::new(1, 0);
        offer(&mut m, 0, 1, payload(1, &[1])).unwrap();
        commit(&mut m).unwrap().unwrap();
        offer(&mut m, 0, 1, payload(1, &[1])).unwrap();
        assert!(commit(&mut m).unwrap().is_none());
        offer(&mut m, 0, 2, payload(2, &[1])).unwrap();
        assert_eq!(commit(&mut m).unwrap().unwrap().epoch, 2);
    }

    #[test]
    fn mismatched_epoch_stamp_cannot_commit() {
        // A payload whose *stamped* epoch disagrees with its frame epoch
        // would mix epochs in one commit; the merge refuses.
        let mut m = MergeBuffer::new(1, 0);
        offer(&mut m, 0, 1, payload(9, &[1])).unwrap();
        assert!(matches!(commit(&mut m), Err(ClusterError::Protocol { .. })));
    }

    #[test]
    fn corrupt_payload_bytes_are_wire_errors() {
        let mut m = MergeBuffer::new(1, 0);
        let mut bytes = payload(1, &[1]);
        bytes.truncate(bytes.len() - 1);
        offer(&mut m, 0, 1, bytes).unwrap();
        assert!(matches!(commit(&mut m), Err(ClusterError::Wire(_))));
    }

    #[test]
    fn out_of_range_worker_or_payload_is_typed_not_a_panic() {
        let mut m = MergeBuffer::new(2, 0);
        assert!(matches!(
            offer(&mut m, 2, 1, payload(1, &[1])),
            Err(ClusterError::Protocol { .. })
        ));
        let header = DeltasHeader {
            worker: 0,
            epoch: 1,
            payload: 4..64,
        };
        assert!(matches!(
            m.offer(header, vec![0; 8]),
            Err(ClusterError::Protocol { .. })
        ));
        // Nothing was taken in: both workers' epoch 1 still open.
        offer(&mut m, 0, 1, payload(1, &[1])).unwrap();
        offer(&mut m, 1, 1, payload(1, &[2])).unwrap();
        assert_eq!(commit(&mut m).unwrap().unwrap().changed.len(), 2);
    }

    #[test]
    fn committing_reads_payloads_in_place_and_hands_the_frames_back() {
        let mut m = MergeBuffer::new(2, 0);
        assert_eq!(m.take_spent(0), None);
        for (w, qids) in [(0u32, &[1u32, 5][..]), (1, &[3][..])] {
            offer_frame(&mut m, &deltas_frame(w, 1, qids)).unwrap();
        }
        let c = commit(&mut m).unwrap().unwrap();
        assert_eq!(c.changed, vec![QueryId(1), QueryId(3), QueryId(5)]);
        for w in 0..2 {
            let spent = m.take_spent(w).expect("the frame the payload arrived in");
            assert!(DeltasHeader::from_frame(&spent).unwrap().is_some());
            assert_eq!(m.take_spent(w), None);
        }
    }

    #[test]
    fn out_of_order_and_overlapping_runs_are_typed_not_mis_merged() {
        for (a, b) in [
            (&[5u32, 3][..], &[4u32][..]), // a run out of order
            (&[1, 4], &[4, 6]),            // one query from two workers
            (&[2, 2], &[]),                // a duplicate inside a run
        ] {
            let mut m = MergeBuffer::new(2, 0);
            offer(&mut m, 0, 1, batch(1, a).encode_to_vec()).unwrap();
            offer(&mut m, 1, 1, batch(1, b).encode_to_vec()).unwrap();
            assert!(
                matches!(commit(&mut m), Err(ClusterError::Protocol { .. })),
                "{a:?} + {b:?}"
            );
        }
        // Only the `deltas` list out of order is caught just the same.
        let mut bad = batch(1, &[3, 7]);
        bad.deltas.swap(0, 1);
        let mut m = MergeBuffer::new(1, 0);
        offer(&mut m, 0, 1, bad.encode_to_vec()).unwrap();
        assert!(matches!(commit(&mut m), Err(ClusterError::Protocol { .. })));
    }

    mod prop {
        use super::*;
        use cpm_gen::{Corruption, FaultPlan};
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// Replay a mangled frame schedule into a fresh buffer exactly as
        /// the coordinator would ([`offer_frame`]). Returns the committed
        /// epochs, or the typed error that stopped them.
        fn drive(workers: u32, frames: &[Vec<u8>]) -> Result<Vec<CycleDeltas>, ClusterError> {
            let mut m = MergeBuffer::new(workers as usize, 0);
            let mut committed = Vec::new();
            for f in frames {
                offer_frame(&mut m, f)?;
                while let Some(c) = commit(&mut m)? {
                    committed.push(c);
                }
            }
            Ok(committed)
        }

        /// Like [`drive`], but modeling the barrier cadence of a
        /// `submit_cycle` loop: commits are only attempted every
        /// `drain_every` frames (and once at the end), so several
        /// epochs sit in the buffer simultaneously before draining —
        /// exactly the route-*e+1* / compute-*e* / merge-*e−1* overlap.
        fn drive_pipelined(
            workers: u32,
            frames: &[Vec<u8>],
            drain_every: usize,
        ) -> Result<Vec<CycleDeltas>, ClusterError> {
            let mut m = MergeBuffer::new(workers as usize, 0);
            let mut committed = Vec::new();
            for (i, f) in frames.iter().enumerate() {
                offer_frame(&mut m, f)?;
                if (i + 1) % drain_every == 0 {
                    while let Some(c) = commit(&mut m)? {
                        committed.push(c);
                    }
                }
            }
            while let Some(c) = commit(&mut m)? {
                committed.push(c);
            }
            Ok(committed)
        }

        /// Interleave the per-(worker, epoch) frames into a pipelined
        /// arrival order: per-worker epoch order is preserved (the
        /// transports are FIFO) but workers run ahead of each other by
        /// up to `lead` epochs — with `lead = 2`, epochs e−1, e and
        /// e+1 are all in flight at once.
        fn pipelined_interleave(
            rng: &mut StdRng,
            workers: u32,
            frames: &[Vec<u8>],
            lead: u64,
        ) -> Vec<Vec<u8>> {
            // frames[] is epoch-major: frame for (worker w, epoch e) at
            // index (e - 1) * workers + w.
            let mut next: Vec<u64> = vec![0; workers as usize];
            let epochs = frames.len() as u64 / u64::from(workers);
            let mut out = Vec::with_capacity(frames.len());
            while out.len() < frames.len() {
                let floor = next
                    .iter()
                    .filter(|&&e| e < epochs)
                    .copied()
                    .min()
                    .expect("some worker still has frames");
                let eligible: Vec<usize> = (0..workers as usize)
                    .filter(|&w| next[w] < epochs && next[w] <= floor + lead)
                    .collect();
                let w = eligible[rng.gen_range(0..eligible.len())];
                out.push(frames[next[w] as usize * workers as usize + w].clone());
                next[w] += 1;
            }
            out
        }

        proptest! {
            /// The commit's W-way merge of the workers' encoded runs is
            /// what decoding every payload, concatenating and sorting by
            /// query id gives — for any split of any id set over
            /// W ∈ {1, 2, 4} workers, empty runs included.
            #[test]
            fn merged_commit_equals_concatenate_and_sort(
                seed in 0u64..1u64 << 48,
                w_log2 in 0u32..3,
                ids in proptest::collection::vec(0u32..400, 0..120),
            ) {
                let workers = 1usize << w_log2;
                let mut rng = StdRng::seed_from_u64(seed);
                let mut ids = ids;
                ids.sort_unstable();
                ids.dedup();
                let mut runs = vec![Vec::new(); workers];
                for id in ids {
                    runs[rng.gen_range(0..workers)].push(id);
                }
                let mut m = MergeBuffer::new(workers, 0);
                let mut want = CycleDeltas { epoch: 1, ..Default::default() };
                for (w, qids) in runs.iter().enumerate() {
                    let bytes = batch(1, qids).encode_to_vec();
                    let part = CycleDeltas::decode_all(&bytes).unwrap();
                    want.changed.extend(part.changed);
                    want.deltas.extend(part.deltas);
                    offer(&mut m, w as u32, 1, bytes).unwrap();
                }
                want.changed.sort_unstable();
                want.deltas.sort_by_key(|(qid, _)| *qid);
                prop_assert_eq!(commit(&mut m).unwrap().unwrap(), want);
            }

            /// Satellite: delayed/duplicated/reordered `Deltas` frames —
            /// the fault vocabulary of `cpm-gen`'s recovery plans applied
            /// to the delta plane — either merge identically to the
            /// clean schedule or surface a typed epoch-gap/conflict
            /// error; a commit never mixes epochs.
            #[test]
            fn faulted_delta_streams_merge_identically_or_fail_typed(
                seed in 0u64..1u64 << 48,
                workers in 1u32..4,
                epochs in 1u64..6,
            ) {
                let qid_of = |w: u32, e: u64| w + workers * (e as u32 % 2);
                // The clean per-worker schedule, one wire frame per
                // (worker, epoch) — the shape workers actually ship.
                let mut frames: Vec<Vec<u8>> = Vec::new();
                for e in 1..=epochs {
                    for w in 0..workers {
                        frames.push(deltas_frame(w, e, &[qid_of(w, e)]));
                    }
                }
                let reference = drive(workers, &frames).unwrap();
                prop_assert_eq!(reference.len() as u64, epochs);

                // Mangle the schedule with the seeded fault plan.
                let plan = FaultPlan::from_seed(seed, epochs as u32);
                let mut rng = StdRng::seed_from_u64(plan.site_seed);
                let mut mangled = frames.clone();
                match plan.corruption {
                    Corruption::None => {}
                    // The relay redelivered a frame (at-least-once).
                    Corruption::DuplicateFrame => {
                        let i = rng.gen_range(0..mangled.len());
                        let dup = mangled[i].clone();
                        let at = rng.gen_range(i..=mangled.len());
                        mangled.insert(at, dup);
                    }
                    // Two frames arrive swapped (delay = reorder).
                    Corruption::ReorderFrames => {
                        let i = rng.gen_range(0..mangled.len());
                        let j = rng.gen_range(0..mangled.len());
                        mangled.swap(i, j);
                    }
                    // The stream tail never arrives (indefinite delay):
                    // the barrier holds the incomplete epoch back and the
                    // committed prefix stays identical.
                    Corruption::TruncateTail => {
                        let keep = rng.gen_range(0..mangled.len());
                        mangled.truncate(keep);
                    }
                    // A frame got damaged in flight: the CRC (or header
                    // validation) catches it at decode as a typed wire
                    // error — damaged bytes never reach the merge.
                    Corruption::BitFlipJournal | Corruption::BitFlipSnapshot => {
                        let i = rng.gen_range(0..mangled.len());
                        let b = rng.gen_range(0..mangled[i].len());
                        mangled[i][b] ^= 1 << rng.gen_range(0..8u8);
                    }
                }

                match drive(workers, &mangled) {
                    Ok(committed) => {
                        // Every commit is epoch-pure and consecutive…
                        for (i, c) in committed.iter().enumerate() {
                            prop_assert_eq!(c.epoch, i as u64 + 1);
                            for (_, d) in &c.deltas {
                                prop_assert_eq!(d.epoch, c.epoch);
                            }
                        }
                        // …and a fully committed run is bit-identical to
                        // the clean schedule.
                        for (got, want) in committed.iter().zip(&reference) {
                            prop_assert_eq!(got, want);
                        }
                    }
                    Err(
                        ClusterError::EpochGap { .. }
                        | ClusterError::ConflictingDeltas { .. }
                        | ClusterError::Wire(_)
                        | ClusterError::Protocol { .. },
                    ) => {}
                    Err(other) => prop_assert!(false, "untyped failure: {}", other),
                }
            }

            /// The pipelined extension of the proptest above: frames
            /// arrive in a pipelined interleave (workers up to two
            /// epochs apart, so e−1, e and e+1 are in flight
            /// simultaneously), the barrier drains lazily, and the same
            /// delay/duplication/reorder/damage vocabulary is applied on
            /// top. The committed stream must still be bit-identical to
            /// the clean serial schedule, or fail typed.
            #[test]
            fn pipelined_in_flight_epochs_merge_identically_or_fail_typed(
                seed in 0u64..1u64 << 48,
                workers in 1u32..4,
                epochs in 3u64..7,
                lead in 1u64..3,
                drain_every in 1usize..4,
            ) {
                let qid_of = |w: u32, e: u64| w + workers * (e as u32 % 2);
                let mut frames: Vec<Vec<u8>> = Vec::new();
                for e in 1..=epochs {
                    for w in 0..workers {
                        frames.push(deltas_frame(w, e, &[qid_of(w, e)]));
                    }
                }
                // The serial reference and the clean pipelined schedule
                // must already agree: the interleave plus lazy draining
                // changes arrival order, never the committed stream.
                let reference = drive(workers, &frames).unwrap();
                let mut rng = StdRng::seed_from_u64(seed);
                let pipelined = pipelined_interleave(&mut rng, workers, &frames, lead);
                let clean = drive_pipelined(workers, &pipelined, drain_every).unwrap();
                prop_assert_eq!(&clean, &reference);

                // Mangle the pipelined arrival order with the same
                // seeded fault vocabulary.
                let plan = FaultPlan::from_seed(seed, epochs as u32);
                let mut rng = StdRng::seed_from_u64(plan.site_seed);
                let mut mangled = pipelined.clone();
                match plan.corruption {
                    Corruption::None => {}
                    Corruption::DuplicateFrame => {
                        let i = rng.gen_range(0..mangled.len());
                        let dup = mangled[i].clone();
                        let at = rng.gen_range(i..=mangled.len());
                        mangled.insert(at, dup);
                    }
                    Corruption::ReorderFrames => {
                        let i = rng.gen_range(0..mangled.len());
                        let j = rng.gen_range(0..mangled.len());
                        mangled.swap(i, j);
                    }
                    Corruption::TruncateTail => {
                        let keep = rng.gen_range(0..mangled.len());
                        mangled.truncate(keep);
                    }
                    Corruption::BitFlipJournal | Corruption::BitFlipSnapshot => {
                        let i = rng.gen_range(0..mangled.len());
                        let b = rng.gen_range(0..mangled[i].len());
                        mangled[i][b] ^= 1 << rng.gen_range(0..8u8);
                    }
                }

                match drive_pipelined(workers, &mangled, drain_every) {
                    Ok(committed) => {
                        for (i, c) in committed.iter().enumerate() {
                            prop_assert_eq!(c.epoch, i as u64 + 1);
                            for (_, d) in &c.deltas {
                                prop_assert_eq!(d.epoch, c.epoch);
                            }
                        }
                        for (got, want) in committed.iter().zip(&reference) {
                            prop_assert_eq!(got, want);
                        }
                    }
                    Err(
                        ClusterError::EpochGap { .. }
                        | ClusterError::ConflictingDeltas { .. }
                        | ClusterError::Wire(_)
                        | ClusterError::Protocol { .. },
                    ) => {}
                    Err(other) => prop_assert!(false, "untyped failure: {}", other),
                }
            }
        }
    }
}
