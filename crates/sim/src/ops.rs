//! The conformance harness's input: one seeded op-stream, generated up
//! front as plain data, that every lane of [`crate::verify()`] replays
//! verbatim.
//!
//! Cycle 0 carries the initial object population as appears and cycle 1
//! the initial query installs, so every deployment — including a cluster
//! coordinator, which has no bulk-load path — ingests the identical
//! stream, queries land *after* objects exist (a k-NN over an empty
//! workspace has unbounded influence, which no finite coverage can
//! certify) and every initial result rides the delta stream.

use cpm_core::{AggregateFn, AnnQuery, AnyQuerySpec, ConstrainedQuery, RangeQuery, SpecEvent};
use cpm_gen::FaultPlan;
use cpm_geom::{ObjectId, Point, QueryId, Rect};
use cpm_grid::{ObjectEvent, QueryEvent, QueryKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::lane::knn;
use crate::stream::SimulationInput;

/// A deployment-level operation fired *before* its cycle's events run.
/// Every one is **observationally invisible by contract**: results,
/// changed lists and delta streams must not depend on it, so a lane that
/// cannot perform one ignores it and must still match the reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Control {
    /// Re-grid to this resolution ([`crate::Regrid::Scheduled`] lanes).
    Regrid(u32),
    /// Capture a snapshot, send it through its frame, and continue on
    /// the restored server.
    SnapshotRoundTrip,
    /// Lose the in-memory state, damage the durable artifacts per the
    /// plan's corruption class and site seed (its `crash_cycle` is the
    /// control's own position), recover, and redeliver what was lost.
    Crash(FaultPlan),
    /// Hot-swap cluster worker `index % workers` by snapshot transfer.
    RestartWorker(usize),
    /// Install a k-NN query between cycles, outside any event batch (its
    /// initial result rides no delta; subscribers are seeded with it).
    InstallOutOfBand {
        /// Fresh query id.
        id: QueryId,
        /// Query point.
        pos: Point,
        /// Result size.
        k: usize,
    },
}

/// One cycle's input.
#[derive(Debug, Clone, Default)]
pub struct CycleOps {
    /// Fired first, if any.
    pub control: Option<Control>,
    /// Reverse-NN registrations to place at a point before the cycle
    /// (installed on first mention, moved afterwards) — composites have
    /// no event form, the server owns their six-sector composition.
    pub rnn_moves: Vec<(QueryId, Point)>,
    /// The cycle's object updates (one event per object).
    pub object_events: Vec<ObjectEvent>,
    /// The cycle's query events (one event per query).
    pub spec_events: Vec<SpecEvent<AnyQuerySpec>>,
}

/// Where [`OpStream::mixed`] may put query anchors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Anchors {
    /// Anywhere; the stream also carries reverse-NN registrations.
    Free,
    /// Pinned inside jitter boxes around the centers of the four
    /// ownership strips of a `workers = 4` tiling (coarser tilings
    /// contain the strips whole), with regions small enough that the
    /// influence certificate holds at an overlap of a third of the grid:
    /// every query keeps one owner, so cluster lanes can run the stream.
    /// No reverse-NN ops — the router refuses composites.
    Strips,
}

/// A whole run's input, cycle by cycle.
#[derive(Debug, Clone)]
pub struct OpStream {
    /// The expression that rebuilds this stream, for failure messages.
    pub label: String,
    /// Grid resolution every lane starts at.
    pub grid_dim: u32,
    /// The cycles, in order; cycle `t` produces epoch `t + 1`.
    pub cycles: Vec<CycleOps>,
}

const STRIP_X: [f64; 4] = [0.125, 0.375, 0.625, 0.875];
const KINDS: [QueryKind; 4] = [
    QueryKind::Knn,
    QueryKind::Range,
    QueryKind::Ann,
    QueryKind::Constrained,
];

/// A fresh geometry of `kind` for a query homed on `strip`. Under
/// [`Anchors::Free`] the parts of a geometry are drawn independently over
/// the whole workspace: an aggregate's points lie far apart and a
/// constrained query's point is more often outside its region than in it.
fn sample_spec(rng: &mut StdRng, anchors: Anchors, kind: QueryKind, strip: usize) -> AnyQuerySpec {
    let free = anchors == Anchors::Free;
    let (c, spread) = match anchors {
        Anchors::Free => (Point::new(rng.gen(), rng.gen()), 0.25),
        Anchors::Strips => {
            let x = STRIP_X[strip] + rng.gen_range(-0.04..0.04);
            (Point::new(x, rng.gen_range(0.15..0.85)), 0.08)
        }
    };
    let around = |r: f64| {
        Rect::new(
            Point::new((c.x - r).max(0.0), (c.y - r).max(0.0)),
            Point::new((c.x + r).min(1.0), (c.y + r).min(1.0)),
        )
    };
    match kind {
        QueryKind::Knn => knn(c),
        QueryKind::Range if rng.gen_bool(0.5) => {
            RangeQuery::circle(c, spread * rng.gen_range(0.5..1.0)).into()
        }
        QueryKind::Range => RangeQuery::rect(around(spread * rng.gen_range(0.5..1.0))).into(),
        QueryKind::Ann => {
            // An aggregate over a spread point set reaches further than a
            // point query; on a strip, keep its influence certifiable.
            let (most, near) = if free {
                (4, around(1.0))
            } else {
                (2, around(0.25 * spread))
            };
            let points = (0..rng.gen_range(1..=most))
                .map(|_| {
                    let x = rng.gen_range(near.lo.x..=near.hi.x);
                    Point::new(x, rng.gen_range(near.lo.y..=near.hi.y))
                })
                .collect();
            let f = [AggregateFn::Sum, AggregateFn::Min, AggregateFn::Max][rng.gen_range(0..3)];
            AnnQuery::new(points, f).into()
        }
        QueryKind::Constrained if free && rng.gen_bool(0.7) => {
            let lo = Point::new(rng.gen_range(0.0..0.6), rng.gen_range(0.0..0.6));
            let (w, h) = (rng.gen_range(0.1..0.4), rng.gen_range(0.1..0.4));
            ConstrainedQuery::new(c, Rect::new(lo, Point::new(lo.x + w, lo.y + h))).into()
        }
        QueryKind::Constrained => ConstrainedQuery::new(c, around(1.1 * spread)).into(),
        QueryKind::Rnn => unreachable!("composites have no event form"),
    }
}

impl OpStream {
    /// A stream whose cycle 0 makes `objects` appear and whose cycle 1
    /// carries `installs`; add the rest with [`push`](Self::push).
    pub fn new(
        label: impl Into<String>,
        grid_dim: u32,
        objects: impl IntoIterator<Item = (ObjectId, Point)>,
        installs: Vec<SpecEvent<AnyQuerySpec>>,
    ) -> Self {
        let appear = |(id, pos)| ObjectEvent::Appear { id, pos };
        let mut stream = OpStream {
            label: label.into(),
            grid_dim,
            cycles: Vec::new(),
        };
        stream.push(objects.into_iter().map(appear).collect(), Vec::new());
        stream.push(Vec::new(), installs);
        stream
    }

    /// Append one cycle; returns it, for the rarer fields.
    pub fn push(
        &mut self,
        object_events: Vec<ObjectEvent>,
        spec_events: Vec<SpecEvent<AnyQuerySpec>>,
    ) -> &mut CycleOps {
        self.cycles.push(CycleOps {
            object_events,
            spec_events,
            ..CycleOps::default()
        });
        self.cycles.last_mut().expect("just pushed")
    }

    /// The one seeded churn generator: `n_objects` objects appear, two
    /// queries of each of k-NN, range, aggregate-NN and constrained install
    /// (plus two reverse-NN registrations under [`Anchors::Free`]), then
    /// every cycle moves, adds and removes objects and moves, installs
    /// and terminates queries of every kind — with one install at a third
    /// and one termination at two thirds of the run guaranteed. A 16² grid
    /// unless [`dim`](Self::dim) says otherwise.
    ///
    /// # Panics
    /// Panics if `cycles < 3` (population, installs, one churn cycle).
    pub fn mixed(seed: u64, n_objects: u32, cycles: usize, anchors: Anchors) -> Self {
        assert!(cycles >= 3, "a mixed stream needs at least three cycles");
        let rng = &mut StdRng::seed_from_u64(seed ^ 0xD15C_0CA7);
        let label = format!("OpStream::mixed({seed}, {n_objects}, {cycles}, Anchors::{anchors:?})");
        let objects: Vec<_> = (0..n_objects)
            .map(|id| (ObjectId(id), Point::new(rng.gen(), rng.gen())))
            .collect();

        // Live queries with their kind and home strip.
        let mut queries: Vec<(QueryId, QueryKind, usize)> = Vec::new();
        let mut next_qid = 0;
        let mut install = |rng: &mut StdRng, queries: &mut Vec<_>, kind| {
            let (id, strip) = (QueryId(next_qid), rng.gen_range(0..4));
            next_qid += 1;
            queries.push((id, kind, strip));
            let k = match (kind, anchors) {
                (QueryKind::Range, _) => RangeQuery::UNBOUNDED_K,
                (QueryKind::Ann, Anchors::Strips) => 1,
                _ => rng.gen_range(1..=3),
            };
            let spec = sample_spec(rng, anchors, kind, strip);
            SpecEvent::Install { id, spec, k }
        };
        let installs = [0, 0, 1, 1, 2, 2, 3, 3].map(|i| install(rng, &mut queries, KINDS[i]));
        let mut stream = OpStream::new(label, 16, objects, installs.to_vec());
        let rnn_ids: &[QueryId] = match anchors {
            Anchors::Free => &[QueryId(1000), QueryId(1001)],
            Anchors::Strips => &[],
        };
        let place = |rng: &mut StdRng, id| (id, Point::new(rng.gen(), rng.gen()));
        stream.cycles[1].rnn_moves = rnn_ids.iter().map(|&id| place(rng, id)).collect();

        let mut live: Vec<u32> = (0..n_objects).collect();
        let mut next_oid = n_objects;
        let floor = (n_objects as usize * 3 / 4).max(8);
        for cycle in 2..cycles {
            let mut object_events = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for _ in 0..rng.gen_range(1..16) {
                let roll = rng.gen_range(0..10);
                let id = match roll {
                    1 => next_oid,
                    _ => live[rng.gen_range(0..live.len())],
                };
                if !seen.insert(id) {
                    continue;
                }
                let (id, pos) = (ObjectId(id), Point::new(rng.gen(), rng.gen()));
                object_events.push(match roll {
                    0 if live.len() > floor => {
                        live.retain(|&o| o != id.0);
                        ObjectEvent::Disappear { id }
                    }
                    1 => {
                        live.push(id.0);
                        next_oid += 1;
                        ObjectEvent::Appear { id, pos }
                    }
                    _ => ObjectEvent::Move { id, to: pos },
                });
            }

            let mut rolls: Vec<u32> = (0..rng.gen_range(0..4))
                .map(|_| rng.gen_range(0..10))
                .collect();
            if cycle == (cycles / 3).max(2) {
                rolls.push(5);
            }
            if cycle == 2 * cycles / 3 {
                rolls.insert(0, 7);
            }
            let mut spec_events: Vec<SpecEvent<AnyQuerySpec>> = Vec::new();
            for roll in rolls {
                // An installed query no event of this batch touches yet.
                let at = rng.gen_range(0..queries.len());
                let (id, kind, strip) = queries[at];
                let fresh = spec_events.iter().all(|ev| ev.id() != id);
                match roll {
                    0..=4 if fresh => {
                        let spec = sample_spec(rng, anchors, kind, strip);
                        spec_events.push(SpecEvent::Update { id, spec });
                    }
                    5 | 6 => {
                        let kind = KINDS[rng.gen_range(0..KINDS.len())];
                        spec_events.push(install(rng, &mut queries, kind));
                    }
                    7 if fresh && queries.len() > 4 => {
                        queries.swap_remove(at);
                        spec_events.push(SpecEvent::Terminate { id });
                    }
                    _ => {}
                }
            }
            let ops = stream.push(object_events, spec_events);
            if !rnn_ids.is_empty() && rng.gen_bool(0.4) {
                let id = rnn_ids[rng.gen_range(0..rnn_ids.len())];
                ops.rnn_moves.push(place(rng, id));
            }
        }
        stream
    }

    /// The same stream on a `grid_dim × grid_dim` grid.
    #[must_use]
    pub fn dim(mut self, grid_dim: u32) -> Self {
        self.grid_dim = grid_dim;
        self.label += &format!(".dim({grid_dim})");
        self
    }

    /// The same stream with `control` fired before cycle `cycle`.
    ///
    /// # Panics
    /// Panics if `cycle` is out of range or already has a control.
    #[must_use]
    pub fn control(mut self, cycle: usize, control: Control) -> Self {
        let slot = &mut self.cycles[cycle].control;
        assert!(slot.is_none(), "cycle {cycle} already has a control");
        *slot = Some(control);
        self.label += &format!(".control({cycle}, Control::{control:?})");
        self
    }

    /// Events (object, query, reverse-NN placement) across all cycles.
    pub fn ops(&self) -> usize {
        self.cycles
            .iter()
            .map(|c| c.object_events.len() + c.spec_events.len() + c.rnn_moves.len())
            .sum()
    }
}

/// The paper's k-NN streams (network, uniform, skewed, drifting hotspot)
/// as an op-stream: population, installs, then tick `i` as cycle `i + 2`.
impl From<&SimulationInput> for OpStream {
    fn from(input: &SimulationInput) -> Self {
        let lift = |ev: &QueryEvent| match *ev {
            QueryEvent::Install { id, pos, k } => SpecEvent::Install {
                id,
                spec: knn(pos),
                k,
            },
            QueryEvent::Move { id, to } => SpecEvent::Update { id, spec: knn(to) },
            QueryEvent::Terminate { id } => SpecEvent::Terminate { id },
        };
        let installs = input
            .initial_queries
            .iter()
            .map(|&(id, pos, k)| lift(&QueryEvent::Install { id, pos, k }));
        let mut stream = OpStream::new(
            format!(
                "OpStream::from(&SimulationInput::generate(&{:?}))",
                input.params
            ),
            input.params.grid_dim,
            input.initial_objects.iter().copied(),
            installs.collect(),
        );
        for tick in &input.ticks {
            // A server batch holds one event per object: the network
            // generator's respawn (disappear, then appear elsewhere under
            // the same id) is a move.
            let mut object_events: Vec<ObjectEvent> = Vec::with_capacity(tick.object_events.len());
            for &ev in &tick.object_events {
                match (object_events.last_mut(), ev) {
                    (
                        Some(last @ ObjectEvent::Disappear { .. }),
                        ObjectEvent::Appear { id, pos },
                    ) if last.id() == id => {
                        *last = ObjectEvent::Move { id, to: pos };
                    }
                    _ => object_events.push(ev),
                }
            }
            stream.push(object_events, tick.query_events.iter().map(lift).collect());
        }
        stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_streams_are_deterministic_and_batch_clean() {
        for anchors in [Anchors::Free, Anchors::Strips] {
            let stream = OpStream::mixed(7, 60, 24, anchors);
            let again = OpStream::mixed(7, 60, 24, anchors);
            assert_eq!(format!("{stream:?}"), format!("{again:?}"));
            assert_eq!(stream.cycles.len(), 24);
            assert_eq!(stream.cycles[0].object_events.len(), 60);
            assert_eq!(stream.cycles[1].spec_events.len(), 8);
            let (mut installs, mut terminates) = (0, 0);
            for ops in &stream.cycles {
                let mut ids: Vec<u32> = ops.spec_events.iter().map(|ev| ev.id().0).collect();
                ids.extend(ops.object_events.iter().map(|ev| ev.id().0 + 10_000));
                let events = ids.len();
                ids.sort_unstable();
                ids.dedup();
                assert_eq!(ids.len(), events, "one event per query and per object");
                for ev in &ops.spec_events {
                    installs += usize::from(matches!(ev, SpecEvent::Install { .. }));
                    terminates += usize::from(matches!(ev, SpecEvent::Terminate { .. }));
                }
            }
            assert!(installs > 8 && terminates > 0, "{installs} / {terminates}");
            let composites = stream.cycles.iter().any(|c| !c.rnn_moves.is_empty());
            assert_eq!(composites, anchors == Anchors::Free);
        }
    }
}
