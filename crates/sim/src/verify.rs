//! The one conformance harness: how a configuration of the system is
//! proven equivalent to the reference.
//!
//! [`verify`] replays an [`OpStream`] into [`LaneConfig::REFERENCE`] and
//! then into every [`LaneConfig`] given, asserting after every cycle that
//!
//! * every merged batch a lane surfaces equals the reference's batch of
//!   that epoch **bit for bit** (changed list, deltas, `f64` distance
//!   bits), whenever it surfaces — at once, one cycle late through a
//!   cluster's `submit_cycle`, or again after a crash;
//! * the lane's batches, published into its own [`DeltaFanout`] and
//!   folded into one [`Replica`] per live query, reproduce the lane's own
//!   results and brute force over a position model kept from the stream
//!   alone, bit for bit for every kind — a result is the `k` smallest
//!   objects under `(dist, id)` — with no subscriber lagging and no epoch
//!   missing at the end;
//! * reverse-NN sets equal brute force exactly, the lane's object table
//!   equals the model, engine invariants hold, each cycle ingests its
//!   batch exactly once, and [`Metrics`] totals agree between single-node
//!   lanes that differ only in thread count;
//! * after the last cycle, the lane's results and reverse-NN sets equal
//!   bit for bit those of a [`CpmServer`] built from scratch on the final
//!   objects and live queries: since results depend on the state alone,
//!   no history of cycles, re-grids, restores or crashes can leave a lane
//!   elsewhere.
//!
//! A failure prints the stream and lane as the two lines that replay it.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;

use cpm_core::{
    AnyQuerySpec, CpmServer, CpmServerBuilder, CycleDeltas, Neighbor, QuerySpec, RangeQuery,
    SpecEvent,
};
use cpm_geom::{clamp_coord, ObjectId, Point, QueryId};
use cpm_grid::{Metrics, QueryKind};
use cpm_sub::{DeltaFanout, Replica};

use crate::lane::{knn, Deploy, LaneConfig};
use crate::ops::{Control, OpStream};
use crate::oracle::{brute_force, brute_rnn};

/// Brute-force ground truth after one cycle, from the stream alone.
struct Truth {
    objects: Vec<(ObjectId, Point)>,
    results: BTreeMap<QueryId, (QueryKind, Vec<Neighbor>)>,
    rnn: BTreeMap<QueryId, Vec<ObjectId>>,
    /// The result of the out-of-band install fired before this cycle, as
    /// of the previous epoch — what its subscribers are seeded with.
    seed: Vec<Neighbor>,
}

/// Brute-force truth after every cycle, and a server built from scratch
/// on the final objects and live queries.
fn ground_truth(stream: &OpStream) -> (Vec<Truth>, CpmServer) {
    let mut positions: BTreeMap<ObjectId, Point> = BTreeMap::new();
    let mut queries: BTreeMap<QueryId, (AnyQuerySpec, usize)> = BTreeMap::new();
    let mut rnn: BTreeMap<QueryId, Point> = BTreeMap::new();
    let mut truths: Vec<Truth> = Vec::with_capacity(stream.cycles.len());
    for ops in &stream.cycles {
        let mut seed = Vec::new();
        if let Some(Control::InstallOutOfBand { id, pos, k }) = ops.control {
            let before = truths.last().map_or(&[][..], |t| &t.objects);
            seed = brute_force(before.iter().copied(), &knn(pos), k);
            queries.insert(id, (knn(pos), k));
        }
        rnn.extend(ops.rnn_moves.iter().copied());
        for ev in &ops.object_events {
            // Stored positions live in the half-open workspace.
            let stored = |p: Point| Point::new(clamp_coord(p.x), clamp_coord(p.y));
            match ev.position() {
                Some(p) => positions.insert(ev.id(), stored(p)),
                None => positions.remove(&ev.id()),
            };
        }
        for ev in &ops.spec_events {
            match ev {
                SpecEvent::Install { id, spec, k } => {
                    let unbounded = spec.kind() == QueryKind::Range;
                    let k = if unbounded {
                        RangeQuery::UNBOUNDED_K
                    } else {
                        *k
                    };
                    queries.insert(*id, (spec.clone(), k));
                }
                SpecEvent::Update { id, spec } => {
                    queries.get_mut(id).expect("update of a live query").0 = spec.clone();
                }
                SpecEvent::Terminate { id } => drop(queries.remove(id)),
            }
        }
        let objects: Vec<(ObjectId, Point)> = positions.iter().map(|(&id, &p)| (id, p)).collect();
        let result = |(&id, (spec, k)): (&QueryId, &(AnyQuerySpec, usize))| {
            let truth = brute_force(objects.iter().copied(), spec, *k);
            (id, (spec.kind(), truth))
        };
        truths.push(Truth {
            results: queries.iter().map(result).collect(),
            rnn: rnn
                .iter()
                .map(|(&id, &q)| (id, brute_rnn(&objects, q)))
                .collect(),
            objects,
            seed,
        });
    }
    let mut rebuilt = CpmServerBuilder::new(stream.grid_dim).build();
    rebuilt
        .populate(positions)
        .expect("a valid initial population");
    for (id, (spec, k)) in queries {
        let _ = rebuilt
            .install_spec(id, spec, k)
            .expect("a live query installs");
    }
    for (id, pos) in rnn {
        let _ = rebuilt.install_rnn(id, pos).expect("a live RNN installs");
    }
    (truths, rebuilt)
}

/// Prints the two lines that replay a failing lane when a check (or the
/// lane itself) panics.
struct Replay<'a> {
    stream: &'a OpStream,
    lane: LaneConfig,
    cycle: usize,
}

impl Drop for Replay<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "conformance failure at cycle {} — replay with:\n    let stream = {};\n    \
                 cpm_sim::verify(&stream, &[{:?}]);",
                self.cycle, self.stream.label, self.lane
            );
        }
    }
}

/// One lane's subscription side: its fan-out and one replica per live
/// query.
#[derive(Default)]
struct Subscribers {
    fanout: DeltaFanout,
    replicas: BTreeMap<QueryId, Replica>,
}

impl Subscribers {
    /// Check one surfaced batch against the reference's, publish it, and
    /// check the folded replicas against brute force.
    fn deliver(
        &mut self,
        batch: &CycleDeltas,
        want: &CycleDeltas,
        stream: &OpStream,
        truth: &Truth,
    ) {
        let epoch = batch.epoch;
        assert_eq!(batch, want, "merged batch of epoch {epoch} diverged");
        if epoch <= self.fanout.epoch() {
            // At-least-once redelivery after a crash: verified above,
            // deduplicated by epoch like any log consumer would.
            return;
        }
        let ops = &stream.cycles[epoch as usize - 1];
        // A query installed outside a cycle has no install delta: seed
        // its subscription with its result as of the previous epoch.
        if let Some(Control::InstallOutOfBand { id, .. }) = ops.control {
            assert!(self.fanout.subscribe_from(id, &truth.seed));
            let seeded = Replica::from_snapshot(epoch - 1, truth.seed.clone());
            self.replicas.insert(id, seeded);
        }
        // Subscribe before the install cycle publishes, so the initial
        // result arrives as a delta.
        for ev in &ops.spec_events {
            if let SpecEvent::Install { id, .. } = ev {
                assert!(self.fanout.subscribe(*id), "{id} subscribed twice");
                self.replicas.insert(*id, Replica::new());
            }
        }
        self.fanout.publish(batch);
        for (&id, replica) in &mut self.replicas {
            for delta in self.fanout.drain(id) {
                replica.apply(&delta);
            }
            assert!(!self.fanout.lagged(id), "unbounded mailbox of {id} dropped");
        }
        for ev in &ops.spec_events {
            if let SpecEvent::Terminate { id } = ev {
                self.fanout.unsubscribe(*id);
                self.replicas.remove(id);
            }
        }
        assert!(
            self.replicas.keys().eq(truth.results.keys()),
            "subscriptions diverged from the live queries at epoch {epoch}"
        );
        for ((id, replica), (kind, want)) in self.replicas.iter().zip(truth.results.values()) {
            let got = replica.result();
            assert_eq!(got, want, "{kind:?} {id} diverged from brute force");
        }
    }
}

/// Returns how often the lane's grid resolution moved.
fn run_lane(
    stream: &OpStream,
    cfg: LaneConfig,
    truth: &[Truth],
    rebuilt: &CpmServer,
    reference: &mut Vec<CycleDeltas>,
    metric_groups: &mut Vec<(LaneConfig, Vec<Metrics>)>,
) -> usize {
    let recording = reference.is_empty();
    let mut replay = Replay {
        stream,
        lane: cfg,
        cycle: 0,
    };
    let mut lane = cfg.build(stream.grid_dim);
    let mut subs = Subscribers::default();
    let (mut metrics, mut ingested) = (Vec::new(), 0);
    let (mut dim, mut regrids) = (stream.grid_dim, 0);
    for (t, ops) in stream.cycles.iter().enumerate() {
        replay.cycle = t;
        let surfaced = lane.apply(stream, t);
        if recording {
            reference.extend(surfaced.iter().cloned());
        }
        for batch in &surfaced {
            let at = batch.epoch as usize - 1;
            subs.deliver(batch, &reference[at], stream, &truth[at]);
        }
        let Some(server) = lane.server() else {
            continue;
        };
        regrids += usize::from(server.grid().dim() != dim);
        dim = server.grid().dim();
        // A lane with a read surface is never behind its own output.
        assert_eq!(subs.fanout.epoch(), server.epoch());
        for (id, replica) in &subs.replicas {
            assert_eq!(
                Some(replica.result()),
                server.result(*id),
                "replica of {id} diverged from the lane's own result"
            );
        }
        for (id, want) in &truth[t].rnn {
            assert_eq!(
                server.rnn_result(*id),
                Some(want.as_slice()),
                "reverse-NN set of {id} diverged from brute force"
            );
        }
        assert!(
            server
                .grid()
                .iter_objects()
                .eq(truth[t].objects.iter().copied()),
            "object table diverged from the stream's position model"
        );
        server.check_invariants();
        if cfg.deploy == Deploy::Single {
            ingested += ops.object_events.len() as u64;
            metrics.push(server.metrics());
            assert_eq!(
                metrics[t].updates_applied, ingested,
                "every cycle ingests its batch exactly once"
            );
        }
    }
    replay.cycle = stream.cycles.len();
    for batch in &lane.finish() {
        let at = batch.epoch as usize - 1;
        subs.deliver(batch, &reference[at], stream, &truth[at]);
    }
    assert_eq!(
        subs.fanout.epoch(),
        stream.cycles.len() as u64,
        "the lane dropped merged cycles"
    );
    // The replicas equal the lane's own results (checked every cycle).
    for (&id, replica) in &subs.replicas {
        assert_eq!(
            Some(replica.result()),
            rebuilt.result(id),
            "{id} differs from a server rebuilt from the final state"
        );
    }
    if let Some(server) = lane.server() {
        for id in truth.last().into_iter().flat_map(|t| t.rnn.keys()) {
            assert_eq!(
                server.rnn_result(*id),
                rebuilt.rnn_result(*id),
                "reverse-NN set of {id} differs from a server rebuilt from the final state"
            );
        }
    }
    // Lanes that differ only in thread count do the same work.
    let key = LaneConfig {
        threads: NonZeroUsize::MIN,
        ..cfg
    };
    match metric_groups.iter().find(|(k, _)| *k == key) {
        Some((_, first)) => {
            for (t, (a, b)) in first.iter().zip(&metrics).enumerate() {
                replay.cycle = t;
                assert_eq!(a, b, "Metrics totals depend on the thread count");
            }
        }
        None => metric_groups.push((key, metrics)),
    }
    regrids
}

/// What a passing [`verify`] run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verified {
    /// Operations replayed: stream events × lanes, the reference included.
    pub ops: usize,
    /// Cycles across which a lane's grid resolution moved, summed over the
    /// lanes with a read surface — a re-grid is invisible by contract, so
    /// nothing else tells whether a schedule or policy ever acted.
    pub regrids: usize,
}

/// Prove every configuration in `lanes` equivalent to
/// [`LaneConfig::REFERENCE`] on `stream`; see the [module docs](self)
/// for what is asserted.
///
/// # Panics
/// Panics on the first divergence, after printing the stream and lane
/// that replay it.
pub fn verify(stream: &OpStream, lanes: &[LaneConfig]) -> Verified {
    let (truth, rebuilt) = ground_truth(stream);
    let (mut reference, mut metric_groups) = (Vec::new(), Vec::new());
    let mut regrids = 0;
    for &cfg in [LaneConfig::REFERENCE].iter().chain(lanes) {
        regrids += run_lane(
            stream,
            cfg,
            &truth,
            &rebuilt,
            &mut reference,
            &mut metric_groups,
        );
    }
    Verified {
        ops: (lanes.len() + 1) * stream.ops(),
        regrids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Anchors;

    /// The harness must be able to fail (its passing runs are the
    /// workspace's conformance suites, `tests/*.rs`).
    #[test]
    #[should_panic(expected = "diverged from brute force")]
    fn a_wrong_result_is_caught() {
        let stream = OpStream::mixed(5, 40, 4, Anchors::Free);
        let (mut truth, rebuilt) = ground_truth(&stream);
        truth[2].results.values_mut().next().unwrap().1.clear();
        let (mut reference, mut groups) = (Vec::new(), Vec::new());
        let cfg = LaneConfig::REFERENCE;
        run_lane(&stream, cfg, &truth, &rebuilt, &mut reference, &mut groups);
    }
}
